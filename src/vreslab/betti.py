"""Bigraded Betti numbers of cyclic modules via windowed Koszul homology.

A presentation lists the ring variables that act on its module.  For a
piece grid M_(i,j) over them, the strand of the Koszul complex at
bidegree d has terms K_k = direct sum over k-subsets T of those variables
of M_(d - deg T); its homology dimensions are the Betti numbers
beta_{k,d}.  The strand at d reads only pieces at degrees at most d, so
the table of a presentation on a window is the restriction of the table
on any larger window; a caller that needs the Betti numbers on a region
presents the module on exactly that region.

The point-set presentations use one fact: if a variable z is a
nonzerodivisor on M, then beta^S_{k,d}(M) = beta^{S/z}_{k,d}(M/zM), and
S/z is the polynomial ring on the other n+m+1 variables.  So the point
modules are presented modulo z (x0 for S/I_X, and for A_{rows >= t}
below on P^1; y0 for A_{rows >= t} otherwise), with pieces of at most N
dimensions, and each strand is smaller than the one on all n+m+2
variables.  Every variable map is one dense
block over GF(p), target dim x source dim.  ``intersected_presentation``
is the one builder (``point_presentation`` is its t = 0 case); the tests
check the engine against presentations of S/J built from explicit ideal
generators in their own oracles.

At t >= 1 the builder presents not S/J, J = I_X ∩ <x>^t, but its
submodule A' = <x>^t S/J = A_{rows >= t}, A = S/I_X.  Let
R = k[x0..xn, y1..ym] and M = R/J be S/J modulo y0.  J is bigraded and
vanishes below row t, so each of its forms has x-degree at least t and J
lies in <x>^t.  Step (a) of the ``vres`` docstring gives the exact
sequence 0 -> A' -> S/J -> S/<x>^t -> 0, and y0 is a nonzerodivisor on
S/<x>^t, so modulo y0 it stays exact: 0 -> <x>^t M -> M -> R/<x>^t -> 0,
and <x>^t M is M's pieces in rows i >= t with zero below.  R/<x>^t is
extended from k[x0..xn], where a power of the maximal ideal has a linear
resolution (Eagon and Northcott), so every twist in its resolution has
y-degree 0, and Tor^R_k(R/<x>^t)_d = 0 at d = (i, j) with j >= 1.  The
long exact sequence of Tor then gives Tor_k(M)_d = Tor_k(<x>^t M)_d
there: off column 0, A' has the table of S/J.  In column 0 they differ
only at the origin and in rows t..t+n, and one step reads S/J's column 0
off A''s (The sequence route (b)-(d)).  A' is a submodule of A, so x0
and y0 are both nonzerodivisors on it (The Betti box).  For n != 1 the
builder presents A' modulo y0, which is <x>^t M.  On P^1 it presents
A'/x0A', whose pieces are V(t, j) in row t and V(i, j)/V(i-1, j) above,
so that x1 is its one x-variable and the row split serves every t (The
row split).  Either way R's large pieces below row t enter no strand:
the presentation's ``dims`` start at row
``GradedModulePresentation.free_rows`` = t, every piece below reads as
zero, and the only maps it builds below row t are the crossings from
(t-1, 0) by an x-variable, from V(t-1, 0) into V(t, 0), which read the
sweep's cell of V(t-1, 0) and which the column-0 step ranks only at
t <= r_x with n >= 2.

``betti_numbers`` decides in one mask over the window which cells need
a rank.  A cell whose strand has no nonzero summand in any K_k with
k <= kmax has no Betti number there.  Nor has a cell other than the
origin whose piece has the dimension of R's piece, for R the polynomial
ring on the presentation's variables: the module is R/J, R is a domain,
so J_d = 0 forces J_e = 0 at every e <= d, and the strand at d, which
reads only pieces at such e, is R's own strand, exact away from the
origin.  The origin's strand gives beta_0 with no rank.  At t >= 1 the
module is A' modulo y0, not R/J, but a piece of A' in a row i >= t is
M's, and A' has the table of M but at the origin (where its piece is
zero) and in rows t..t+n of column 0, so the certificate holds
everywhere else.  In those rows A' holds Tor_a(B_{>= t}) (The sequence
route (b)), which the column-0 step reads, so the mask keeps them.  On
P^1 no strand of the presentation itself is ranked (Row t, The row
split), so the mask is read only on R/J and on <x>^t M.

One more read replaces a rank.  The map K_1 -> K_0 at d sends
(u_v) in the sum of the M_(d - deg v) to the sum of the v*u_v in M_d.  M
is cyclic and generated at (0, 0), so for d != (0, 0) every element of
M_d is a sum of monomials of degree d times the generator, each a
variable v times a monomial of degree d - deg v: the map is onto, of
rank dim K_0.  At the origin K_1 = 0.  At t >= 1 the module A'
is generated at (t, 0), by the monomials of k[x]_t, and is zero below
row t.  At (i, j) with i >= t and j >= 1 every monomial of degree (i, j)
has a y-factor, so the y-variables alone map onto the piece; at (i, 0)
with i > t every monomial of degree i is an x-variable times one of
degree i - 1 >= t; and at (t, 0) K_1 is zero.  All of this holds
modulo x0 as modulo y0.  Hence wherever K_1 and K_0 are both nonzero the
rank is dim K_0; ``_betti_cell`` assembles no such block.  The read
needs a module generated in the degrees where K_1 is zero: the row
quotient of Row t below is, in column 0; the kernels of the row split
are not, and their strands rank K_1 -> K_0 but at a stall (The row
split).

The row split.  Let the presentation have one x-variable x = x1: on
P^1, S/I_X or A' modulo x0, with t = free_rows.  It is generated in row
t (at the origin for t = 0, by the monomials of k[x]_t for t >= 1), and
modulo x0 every monomial of x-degree i > t is x1 times one of x-degree
i - 1, so x maps M_(i-1,j) onto M_(i,j) for i > t; for S/I_X this is
V(i,j) = V(i-1,j) + x1*V(i-1,j) (see ``points``).  Let y be the
y-variables.  The Koszul complex K(x, y; M) is the mapping cone of x on
K(y; M) (Eisenbud, section 17): its K_k at (i, j) is
K_k(y; M)_(i,j) + K_(k-1)(y; M)_(i-1,j).  The y-variables keep the row,
so the cone splits into one complex per row.  In row t it is
K(y; M_(t,.)), read modulo y0 off the row quotient (see Row t below).
In a row i > t it is the cone of x : K(y; M_(i-1,.)) -> K(y; M_(i,.)),
which is onto.
K(y; -) tensors with a complex of free modules, so it is exact, and with
Z_i = ker(x : M_(i-1,.) -> M_(i,.)), a k[y]-module because y commutes
with x, 0 -> K(y; Z_i) -> K(y; M_(i-1,.)) -> K(y; M_(i,.)) -> 0 is exact.
The cone of an onto map of complexes is quasi-isomorphic to its kernel
shifted up by one homological degree, so for i > t

    beta_{k,(i,j)}(M) = dim H_(k-1)(K(y; Z_i))_j.

Modulo x0, M_(t,.) is V(t, .) and M_(i,.) is V(i,.)/V(i-1,.) for i > t,
so Z_(t+1) = ker(x1 : V(t, .) -> V(t+1, .)/V(t, .)), and every Z_i with
i >= t + 2 is the point presentation's own.
Z_i is dims[i-1, b] - dims[i, b] wide at column b, which the sweep gives
before any map is built: a row where no column drops holds no Betti
number, and nor does a row past the Betti box.  ``_kernel_rows`` takes
rows i > t from the strands of the Z_i, which run over the y-variables
alone, so only the rows where x loses dimension cost a kernel and a rank,
and of those only the rows that lose it in two adjacent columns (Drops,
below).

Stalls.  Call a column c >= 1 of Z_i a stall when sweep rows i-2..i do
not grow from column c - 1 to c: H(i', c-1) = H(i', c) for
i' = i-2, i-1, i, rows below t read as zero, which the cumulative sums of
the presentation's ``dims`` give.  y0 is 1 at every point, so it maps
V(i', c-1) into V(i', c) by inclusion, the identity where the dimensions
agree; M_(i-1,.) and M_(i,.) are V(t, .) or quotients V(i',.)/V(i'-1,.)
of rows among i-2..i, so at a stall y0 maps M_(i-1,c-1) onto M_(i-1,c)
and M_(i,c-1) onto M_(i,c) isomorphically.  y0 commutes with x, so it
maps Z_(i,c-1) into Z_(i,c), injectively, and onto: if y0*u = z with z
in Z_(i,c), then y0*(x*u) = x*z = 0, so x*u = 0.  Two reads follow.  At a
stall c = j, y0 alone maps K_1 onto K_0 = Z_(i,j), so the rank of
K_1 -> K_0 is dim K_0, as for a cyclic module.  And K(y0..ym; Z_i) is the
cone of y0 on K(y1..ym; Z_i) (Eisenbud, section 17); at column j, y0 maps
term h of K(y1..ym; Z_i) at column j - 1 to term h at column j, that is
Z_(i,j-1-h)^C(m,h) to Z_(i,j-h)^C(m,h), and term h is zero for h > m.
Let kmax - 1 be the top degree of Z_i's table.  When every column j - h
with h <= min(kmax, m) is a stall, y0 is an isomorphism on terms
0..kmax, so it induces isomorphisms on H_0..H_(kmax-1), and the long
exact sequence of the cone gives H_h = 0 at column j for every
h <= kmax - 1: column j holds no Betti number, and builds no kernel,
function block or map.  Past saturation this is the common case: once
row t of the sweep reaches N at a column c_0, Z_(t+1) is all of V(t, .)
from there on, every later column is a stall, and no strand past column
c_0 + min(kmax, m) is ranked.

Drops.  Write Z_b for the drop dims[i-1, b] - dims[i, b] of row i and ny
= m + 1 for the number of y-variables.  Each y-variable raises the
column by one, so the strand of K(y; Z_i) at column j has K_k = the sum
of C(ny, k) copies of Z_(i,j-k), and its differential K_k -> K_(k-1)
runs from C(ny, k) copies of Z_(i,j-k) to C(ny, k-1) copies of
Z_(i,j-k+1): between adjacent columns.  When no two adjacent columns of
the drops are both nonzero, one end of every differential is zero, so
every differential is zero and H_k = K_k: row i holds

    beta_{k+1,(i,b+k)}(M) = C(ny, k) * Z_b

for each nonzero Z_b and k <= min(kmax - 1, ny), and nothing else.
``_kernel_rows`` writes these cells, those with b + k inside the pieces
held, and builds no kernel, map or strand for the row.  The stall reads
agree with this, as they drop only cells that it sets to zero: at a stall
c, y0 maps Z_(i,c-1) isomorphically onto Z_(i,c), so Z_(c-1) = Z_c, and
a nonzero stall column would make two adjacent nonzero columns.  So every
stall c of such a row has Z_(c-1) = Z_c = 0; the onto read there gives
rank dim K_0 = 0, and a column j whose columns j - h, h <= min(kmax, m),
all stall has Z zero on columns j - min(kmax, m) - 1..j, which hold every
Z_(j-k), k <= min(kmax - 1, m + 1), that the formula reads at column j.
A row with two adjacent nonzero columns takes the kernel route.  The
read holds at every t, since Z_(t+1) is a drop like any other.

The maps of Z_i follow the one rule of ``intersected_presentation``: its
basis at column b stands for functions on the points, the kernel basis
times the functions of M's piece (i-1, b), computed once per column; y
times these is reduced modulo the cell below the target and read only at
the free columns of the target's kernel basis, which are the coordinates
of a kernel vector.  So M builds the maps of x whose kernels are taken,
as gathers (see ``intersected_presentation``), and no y-map.  At
t >= r_x, where the rows above t are read off row t (The sequence route
(a)), no kernel is taken.
Every other presentation (n >= 2, or one built from explicit pieces)
keeps the strands over all its variables in every row above t, and in
row t too when it has no row quotient.

Row t.  Let t = free_rows and C the row t of A' (of A at t = 0): C_j =
V(t, j), the functions on the points that the forms of degree (t, j)
give, a module over B = k[y0..ym]; at t = 0 C is the coordinate ring of
the y-parts.  A strand at (t, j) reads only pieces (t, j - |T|) with T a
set of y-variables (an x-variable would take it below row t, where the
module is zero).  Modulo x0, row t is C itself, as x0 A' has nothing in
row t, and the strands run over y0..ym: beta_{k,(t,j)} is
dim Tor_k^B(C, k)_j.  Modulo y0, row t is C/y0C and the strands run over
y1..ym: beta_{k,(t,j)} is dim Tor_k^B'(C/y0C, k)_j for B' = k[y1..ym].
Four facts make these one table, read off the row flag.

(a) y0 is a nonzerodivisor on C.  y0 is 1 at every point, so it maps
C_(j-1) = V(t,j-1) into C_j = V(t,j) by the inclusion of function
spaces, which is injective.

(b) Tor^B(C) = Tor^B'(C/y0C), degree by degree.  The
Koszul complex K(y0..ym; C) is the mapping cone of y0 on K(y1..ym; C)
(Eisenbud, section 17).  By (a), y0 is injective on every term, and the
cone of an injective map of complexes is quasi-isomorphic to its
cokernel, K(y1..ym; C/y0C).  So under either quotient row t is the
Koszul homology of C/y0C over y1..ym.

(c) C/y0C is row t of A' modulo y0, (C/y0C)_j = V(t,j)/V(t,j-1), of
dimension H(t, j) - H(t, j - 1), zero past r_y.
``intersected_presentation`` builds it with z = y0 on row t alone, over
y1..ym, and attaches it to every presentation as ``row_quotient``;
``betti_numbers`` reads row t of every table off its strands, whose
pieces are one step of the row's flag wide where a presentation modulo
x0 reads all of V(t, j), up to N wide.  The basis of piece j is the rows
of the RREF cell of V(t,j) at the pivots that V(t,j-1) lacks, at t = 0
the rows of block j of the row flag (a merge keeps the block's rows, see
``points``).  The cell below piece j + 1 is V(t,j) itself, so the map of
y_k is the gather (y_k(q') - y_k(q)) * c(q') of each row c, with pivot
q, over the fresh pivots q' of piece j + 1, with no product (The gather
in ``intersected_presentation``).

(d) The row certificate.  C/y0C is generated in column 0 by
g = dims[0] = H(t, 0) elements: V(t, j) is spanned by V(t, 0) (the
images of the monomials of k[x]_t, or the constant 1 at t = 0) times the
forms of k[y]_j.  So K_1 -> K_0 is onto off column 0, as for a cyclic
module, and K_1 is zero at column 0.  The map B'^g -> C/y0C that sends
the basis to those generators is onto.  Where dims[j] = g * dim B'_j for
a j >= 1 it is injective in degree j, and so in every degree j' <= j: y1
is a nonzerodivisor on B'^g, so a kernel element u of degree j' would
give the kernel element y1^(j-j') u != 0 in degree j.  The strand at
(t, j) reads only columns <= j, where C/y0C is then the free module
B'^g, whose Koszul complex is exact off column 0: the cell holds no
Betti number and is not ranked.  At t = 0, g = 1, and this is the
free-cell certificate of S/I_X on its row 0.  At t >= 1, g = H(t, 0),
and without the factor g a row as wide as B' in some column but
generated by g > 1 elements would be taken for free: two x-parts of P^1
under two y-parts each of P^2 have dims [2, 2, 0, ...] in row 1 and
beta_{1,(1,1)} = 2.

The Betti box.  Let (r_x, r_y) be the corner of the sweep's box (see
``points``: V(i,j) = V(min(i, r_x), min(j, r_y))) and A = S/I_X.  Then
beta_{k,(a,b)}(A) = 0 unless a <= r_x + n and b <= r_y + m, and for
J = I_X ∩ <x>^t with t >= 1, beta_{k,(a,b)}(S/J) = 0 unless
a <= max(t, r_x) + n and b <= r_y + m.

For A: x0 and y0 are 1 at every point, so both are nonzerodivisors and
the Betti numbers of A are those of A/x0A over S/x0 and of A/y0A over
S/y0.  A/x0A has the pieces V(i,j)/V(i-1,j), zero for i > r_x.  Its
strand at (a, b) runs over x1..xn, y0..ym, so each summand is a piece in
a row at least a - n; for a > r_x + n every summand is zero.  A/y0A has
the pieces V(i,j)/V(i,j-1), zero for j > r_y, and its strands run over
x0..xn, y1..ym, so each summand is a piece in a column at least b - m;
for b > r_y + m every summand is zero.

For S/J: step (a) of the ``vres`` docstring gives the exact sequence
0 -> A' -> S/J -> S/<x>^t -> 0 with A' = A_{rows >= t}, and by the long
exact sequence of Tor every twist of S/J is a twist of A' or of
S/<x>^t.  The twists of S/<x>^t are (0, 0) and (t + k - 1, 0) for
k = 1..n+1 (Eagon and Northcott), all inside the box.  A' is a
submodule of A, so x0 and y0 are nonzerodivisors on it.  A'/x0A' has
the pieces V(i,j)/V(i-1,j) for i > t, V(t,j) in row t and zero below,
so it vanishes past row max(t, r_x); A'/y0A' has V(i,j)/V(i,j-1) in rows
i >= t and zero below, so it vanishes past column r_y.  The strand
argument for A, which never used a generator in degree (0, 0), then
bounds the twists of A'.

``intersected_presentation`` records this box on the presentation.  The
strand at a cell reads only pieces at degrees at most the cell, so a
window that contains the box holds every Betti number of the module.
The presentation's ``dims`` hold only the pieces on the window cut at
the box, rows t..min(wi, box row) and columns up to min(wj, box column):
``betti_numbers`` reads its extent from their shape, visits no cell
outside the box, and allocates nothing of the window's size.

The sequence route.  Let t >= 1, J = I_X ∩ <x>^t and A' = A_{rows >= t}.
``betti_numbers`` reads the table of S/J off the exact sequence of step
(a) of the ``vres`` docstring, 0 -> A' -> S/J -> S/<x>^t -> 0: it takes
A''s table, which the presentation holds, and applies one column-0 step,
(b)-(d), at every t >= 1.  No strand of S/J itself is assembled.  Write
k[x] = k[x0..xn] and k[y] = k[y0..ym].

(a) A''s table at t >= r_x, which holds exactly when the Betti box of S/J
ends at row t + n.  There ``vres`` step (b) splits A' = ⊕_k L_k(-t) ⊗ C_k,
where L_k = k[x]/I_(P_k) is the coordinate ring of the k-th of the ell
distinct x-parts and C_k that of its fiber's y-parts.  Over
S = k[x] ⊗ k[y], the tensor product of a k[x]-resolution of L_k and a
k[y]-resolution of C_k resolves L_k ⊗ C_k (Künneth; Eisenbud, section
17), and L_k, cut out by n linear forms, is resolved by their Koszul
complex, with C(n, a) twists a in step a.  So

    beta_{k,(t+a,b)}(A') = C(n, a) * beta'_{k-a,b},

beta' the Betti table over k[y] of ⊕_k C_k, and every other cell holds
zero.  ⊕_k C_k is A's row t, V(t, j) = ⊕_k V^k_j (``vres`` step (b)).
As in Row t (a)-(b), beta' is then the table over y1..ym of the row
modulo y0, the row quotient: the pieces V(t, j)/V(t, j-1) and the y-maps
between them.  It is generated in column 0 by g = ell elements (with
e_k in k[x]_t the idempotents of ``vres`` step (b), the e_k * g, g in
k[y]_j, span V(t, j)), so Row t (d) applies: K_1 -> K_0 is onto off
column 0, beta'_{0,0} = ell is the only entry of column 0, and a column
where the row is ell times as wide as k[y1..ym] is not ranked.  The same
holds at t = 0 when r_x = 0: X has one x-part, A = L_1 ⊗ C_1, and rows
0..n are C(n, a) times row 0.  Below r_x, row t is the row quotient's
table all the same, and the rows above it come from the kernels of the
row split on P^1 and from the live cells of the mask otherwise.

(b) Column 0, at every t >= 1.  A strand at (i, 0) reads only the pieces
(i - |T|, 0), T a set of x-variables, so column 0 of S/J is the table
over k[x] of Nx = k[x]/(I_(π1 X) ∩ <x>^t), with Nx_i = k[x]_i for i < t
and V(i, 0) for i >= t.  Let B = k[x]/I_(π1 X), the coordinate ring of
the x-parts, and Q = k[x]/<x>^t; then 0 -> B_{>= t} -> Nx -> Q -> 0 is
exact, and column 0 of A' is the table of B_{>= t}.  <x>^t has a linear
resolution (Eagon and Northcott): Tor_a(<x>^t) lies in degree t + a, of
dimension EN_a = C(t+n, t+a) * C(t+a-1, a).  The Koszul complex of k[x]
is exact in every degree >= 1, so the Tor sequence of
0 -> <x>^t -> k[x] -> Q -> 0 gives Tor_(a+1)(Q) = Tor_a(<x>^t) in degree
t + a >= 1, and Tor_0(Q) = k in degree 0.  B_{>= t} is generated in
degree t, so Tor_(a+1)(B_{>= t}) vanishes in degree t + a, and so does
Tor_a(Q) (t >= 1).  The long exact sequence of
0 -> B_{>= t} -> Nx -> Q -> 0 in degree t + a then reads

    0 -> Tor_(a+1)(Nx) -> Tor_a(<x>^t) --δ--> Tor_a(B_{>= t})
      -> Tor_a(Nx) -> 0,

and at every other homological degree k and degree e, but k = 0 at
e = 0, Tor_k(Q) and Tor_(k+1)(Q) vanish in degree e, so
Tor_k(Nx)_e = Tor_k(B_{>= t})_e.  With rho_a the rank of δ,
beta_{0,(0,0)} = 1, and in row t + a, a = 0..n,

    beta_{a,(t+a,0)}(S/J) = beta_{a,(t+a,0)}(A') - rho_a,
    beta_{a+1,(t+a,0)}(S/J) = EN_a - rho_a,

and every other cell of column 0 holds A''s number.  At t >= r_x,
beta_{a,(t+a,0)}(A') = ell * C(n, a) by (a).

(c) rho_a is the rank of the crossing differential.  Take the Tors as
Koszul homology over x0..xn, at degree t + a.  There K_k(Nx) is
K_k(B_{>= t}) = ⊕ V(t+a-k, 0) for k <= a and K_k(Q) = ⊕ k[x]_(t+a-k) for
k >= a+1, so the strand of Nx at (t + a, 0) is Q's strand above
B_{>= t}'s, joined by the crossing differential c: K_(a+1) = ⊕ k[x]_(t-1)
-> K_a = ⊕ V(t, 0), whose blocks are the crossing maps from (t-1, 0).
K_a(Q) = ⊕ Q_t is zero there, so every element z of K_(a+1)(Q) is a
cycle, and K_(a+1)(B_{>= t}) = ⊕ B_(t-1) is zero, so H_a(B_{>= t}) is the
cycles of K_a(B_{>= t}) with no boundary to divide by.  δ sends the class
of z to c(z), its lift's boundary in Nx's strand.  c kills the
boundaries of Q's strand (c composed with the differential above it is
the square of Nx's differential), so the image of δ is c(K_(a+1)) and
rho_a = rank c.  rho_0 = H(t, 0) with no rank: Nx is cyclic, so c is
onto V(t, 0) at a = 0.  Under Tor_(a+1)(Q) = Tor_a(<x>^t), δ is a map
Tor_a(<x>^t)_(t+a) -> Tor_a(B_{>= t})_(t+a), which (d) names.

c is ranked from V(t-1, 0), the image of k[x]_(t-1) on the points.  Each
block of c sends f in k[x]_(t-1) to the values of x_v * f at the points,
and these depend on f only through its values.  So c = c' ∘ (⊕ eval), where
eval: k[x]_(t-1) -> V(t-1, 0) is onto and c' has the same signed blocks
on ⊕ V(t-1, 0) -> ⊕ V(t, 0) (x_v * V(t-1, 0) lies in V(t, 0)).  Hence
rank c = rank c'.  The source of c' is C(n+1, a+1) * H(t-1, 0) wide, at
most C(n+1, a+1) * ell, and its blocks are the presentation's maps from
(t-1, 0), built by the one rule from the sweep's RREF cell of V(t-1, 0),
so no monomial is evaluated.

(d) rho_a in closed form.  Let I = I_(π1 X) in k[x], so B = k[x]/I and
<x>^t = k[x]_{>= t}.  Then 0 -> I_{>= t} -> <x>^t -> B_{>= t} -> 0 is
exact, and the connecting map of (b) factors as the isomorphism
Tor_(a+1)(Q) -> Tor_a(<x>^t) of (b), followed by the map that the
quotient <x>^t -> B_{>= t} induces (naturality of the connecting map for
the map of sequences from 0 -> <x>^t -> k[x] -> Q -> 0, the identity on
Q).  So rho_a is the rank of Tor_a(<x>^t) -> Tor_a(B_{>= t}) in degree
t + a, which sits in the long exact sequence

    Tor_a(I_{>= t}) -> Tor_a(<x>^t) -> Tor_a(B_{>= t}) -> Tor_(a-1)(I_{>= t}).

  * t >= r_x + 1.  B is the coordinate ring of ell points, and x0, which
    is 1 at each of them, is a linear nonzerodivisor on it, so reg B is
    the top degree of B/x0B, the last i where H_B(i) grows: r_x.  Then
    reg I = reg B + 1 = r_x + 1 <= t, and the truncation of a module at
    or past its regularity has a linear resolution (Eisenbud and Goto,
    J. Algebra 1984): Tor_(a-1)(I_{>= t}) lies in degree t + a - 1.  The
    map is onto in degree t + a, and rho_a = ell * C(n, a).  Besides
    beta_{0,(0,0)}, column 0 then holds only beta_{a+1,(t+a,0)}, the
    Eagon-Northcott number less ell * C(n, a).
  * n = 1 and t <= r_x.  On P^1, r_x = ell - 1 (``vres`` docstring) and I
    is principal, generated by a form F of degree ell > t (the product of
    one linear form through each x-part).  So I_{>= t} = I = F k[x] is
    free, Tor_1(I_{>= t}) = 0, the map is injective, and
    rho_1 = C(t+1, t+1) * C(t, 1) = t.  With the first case, rho_1 =
    min(t, ell) on P^1 at every t >= 1.
  * n >= 2 and t <= r_x.  No closed form is read: rho_a is the rank of the
    crossing differential of (c).

So at t >= r_x + 1, and on P^1 at every t >= 1, the column-0 step builds
no map below row t.  At t <= r_x with n >= 2 it ranks one crossing
differential c' per row t + a, a = 1..n, from V(t-1, 0) to V(t, 0)
(step (c)), and builds below row t only the crossing maps from (t-1, 0).
The closed forms are ranks of this same crossing; they stay, as they
take no rank.  At t >= r_x the only other ranks are those of row t's
strands over y1..ym.

Bookkeeping that every cell would otherwise redo is computed once: each
k's variable subsets with their bidegrees per (variables, n, k), and,
inside one point-set presentation, the fresh pivots of each piece that
its maps read.  The live mask and the columns that the one-row tables
read (``_row_table``: row t and the kernels Z_i) are shifted ORs of one
helper, ``_reach``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .cox import var_degree
from .diffcalc import dh_p1p2
from .fp import kernel_basis, matmul, rank
from .points import (
    FunctionSpaces,
    PointSet,
    function_space_bases,
    generic_corner,
    generic_hilbert_matrix,
    is_generic_hilbert,
    min_cover_degree,
    regularity_box,
)


class WindowTooSmall(Exception):
    """Raised when a window misses the Betti box, so the table may lack entries."""


@dataclass
class GradedModulePresentation:
    """Finite window of pieces of a bigraded module with its maps.

    It is a module over the polynomial ring on ``variables``, the
    ring variables that act on it; the Koszul strands run over exactly
    these, listed in increasing order, so the x-variables (index <= n)
    come first.  It is cyclic, generated in degree (0, 0), except for A'
    = A_{rows >= t}, generated at (t, 0), its row quotient, generated in
    column 0, and the kernels of the row split (see the module docstring
    and ``_kernel_presentation``).
    ``dims`` holds the pieces on the region the engine reads, its row 0
    being row ``free_rows``: ``dim(d)`` subtracts that offset, is zero
    below it and at negative degrees, and refuses with IndexError a piece
    past the region.  On ``intersected_presentation`` the region is the
    window cut at the Betti box; a presentation built on explicit pieces
    holds its whole window.  ``map(var, d)``
    returns the matrix of multiplication by a variable from the piece at d
    to the piece at d + deg(var), in the chosen bases: a dense int64 block,
    target dim x source dim.  Maps are built lazily and memoized; a builder
    may refuse, with ValueError, a map that the engine never reads.
    ``free_rows`` = t >= 1 marks the presentation of A', modulo x0 on P^1
    and modulo y0 (<x>^t M) otherwise, zero below row t (those rows are
    not stored), whose builder also gives the crossing maps from
    V(t-1, 0), the image on the points of k[x]_(t-1), the piece of S/J at
    (t-1, 0), into row t.  ``box`` is the corner of the Betti box (see the
    module docstring), None when unknown, and ``rx`` the box row r_x of the
    point set's sweep (see ``points``), which the sequence route reads,
    None when unknown.
    ``row_quotient``, on every presentation that ``intersected_presentation``
    builds, presents row ``free_rows`` modulo y0 over y1..ym as a one-row
    presentation: C/y0C for C the row 0 of S/I_X at t = 0, and row t of A'
    at t >= 1.  ``betti_numbers`` reads row t of the table off it (see Row
    t in the module docstring).  On such a presentation ``_piece(d)`` gives
    the functions on the points that stand for the basis of the piece at
    d, with their pivots, and the builder also takes other rows of
    functions and a subset of the target's pivots to read, as the kernels
    of the row split do (``_kernel_presentation``).
    """

    n: int
    m: int
    p: int
    window: tuple[int, int]
    dims: np.ndarray
    variables: tuple[int, ...]
    # t >= 1: the module is A' = A_{rows >= t}, and column 0 of S/J is read
    # off it (see The sequence route in the module docstring)
    free_rows: int = 0
    box: tuple[int, int] | None = None
    rx: int | None = None
    row_quotient: GradedModulePresentation | None = None
    _builder: object = field(default=None, repr=False)
    _piece: object = field(default=None, repr=False)
    _maps: dict = field(default_factory=dict, repr=False)

    def dim(self, d: tuple[int, int]) -> int:
        i, j = d[0] - self.free_rows, d[1]
        if i < 0 or j < 0:
            return 0
        if i >= len(self.dims) or j >= self.dims.shape[1]:
            raise IndexError(f"piece {d} outside the pieces held, rows from {self.free_rows}")
        return int(self.dims[i, j])

    @property
    def complete(self) -> bool:
        """Whether the window contains the Betti box, so holds the whole table."""
        return self.box is not None and all(b <= w for b, w in zip(self.box, self.window))

    @property
    def split(self) -> tuple[int, int]:
        """How many of the variables are x-variables, and how many y-variables."""
        nx = sum(v <= self.n for v in self.variables)
        return nx, len(self.variables) - nx

    def map(self, var: int, d: tuple[int, int]) -> np.ndarray:
        key = (var, d)
        if key not in self._maps:
            self._maps[key] = self._builder(var, d)
        return self._maps[key]


def point_presentation(ps: PointSet, window: tuple[int, int]) -> GradedModulePresentation:
    """S/I_X modulo x0 on the window: ``intersected_presentation`` at t = 0."""
    return intersected_presentation(ps, 0, window)


def intersected_presentation(ps: PointSet, t: int,
                             window: tuple[int, int]) -> GradedModulePresentation:
    """S/I_X at t = 0, and <x>^t S/J = A_{rows >= t} = A', J = I_X ∩ <x>^t,
    at t >= 1, modulo z on the window, over the variables but z.

    z is x0 at t = 0 and on P^1, and y0 at t >= 1 otherwise.  Both are 1
    at every point, so z*g in I_X forces g in I_X: z is a nonzerodivisor
    on A = S/I_X and on its submodule A', and the quotient by z keeps
    their Betti numbers.  (S/J itself is not presented: x0 kills
    x0^(t-1)*f in it when f in I_X has x-degree 0.)  Modulo x0, P^1 has
    one x-variable, and the row split serves every t.  For n >= 2, y0
    stays: modulo x0, row t of A' is all of V(t, .), which does not vanish
    past saturation, so no piece of rows t..t+n reaches R's and the
    free-cell certificate is lost there.  On 60 generic points of
    P^2 x P^1 at t = 2 (seed 1) x0 would rank 157 strands with 4.1 M rank
    entries, where y0 ranks 49 with 0.49 M.

    The pieces are those of A' modulo z: V_d in rows i >= t, V_d the
    evaluation image of S_d in k^N, modulo V_(d - deg z) where that degree
    lies in a row >= t, and zero below row t; the engine reads S/J's
    column 0 off them (see The sequence route in the module docstring).
    Only the pieces on the window cut at the Betti box are held, from row
    t on: computing this region is where the window meets the box.  The
    smaller cell's RREF pivots are among V_d's, and the rows of V_d's RREF
    basis at the other pivots span a complement; a class's coordinates
    are the values, at those pivots, of any representative reduced modulo
    the smaller cell.

    Every map follows one rule, read as a gather where the cell below the
    target is the source's own: take the functions that the source piece's
    basis stands for times the variable, reduce them modulo the cell below
    the target, and read them at the target's basis pivots.
    The one map below row t is the crossing from (t-1, 0) into row t by an
    x-variable, from V(t-1, 0), the image of M's piece k[x]_(t-1): the
    functions are the rows of the sweep's RREF cell there, as no cell lies
    below it, and the rank of a crossing from them is that of the crossing
    from k[x]_(t-1) (step (c) of The sequence route).  Any other map below
    row t raises ValueError.  At every t the presentation carries
    ``row_quotient``, row t modulo y0 over y1..ym, built by the same rule:
    C/y0C for C the row 0 at t = 0, row t of A' at t >= 1 (see Row t in
    the module docstring).  The rows read past r_x are read at r_x,
    clamped in Python ints before they index, so t may pass int64.

    The gather.  The basis of the piece at d stands for the rows of V_d's
    RREF cell at the pivots that the cell below d lacks; at t = 0, where
    z's flag (a column's for z = x0, row 0's for the row quotient) stores
    a block at d (``points.FunctionSpaces.block``), they are the block's
    rows, as a merge keeps them, and are read off the flag.  Where the cell
    below the target is V_d itself (the variable v steps along z's
    direction from a row >= t), a source row c with pivot q is 1 at q and
    0 at every other pivot of V_d's cell.  So (v - v(q)) * c vanishes at
    every pivot of V_d, and it differs from v * c by v(q) * c, which lies
    in V_d: it is the one representative of v * c modulo V_d that vanishes
    at V_d's pivots, the one that the rule's reduction gives.  Its values
    at the target's pivots q' are (v(q') - v(q)) * c(q'), the residue of
    ``points._flag_step``, and the map is that gather, with no product.
    Factors lie in (-p, p) and rows in [0, p), so it is exact in int64.
    The maps across z's direction, the crossing from (t-1, 0) and the
    kernels' maps keep the rule.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n, m, box = ps.n, ps.m, betti_box(ps, t)
    region = (min(window[0], box[0]), min(window[1], box[1]))
    fs = function_space_bases(ps, region)
    z = n + 1 if t and n != 1 else 0
    pres = _modulo(ps, fs, z, t, window, region, tuple(v for v in range(n + m + 2) if v != z),
                   box=box, rx=fs.box[0])
    # row t modulo y0 over y1..ym: C/y0C at t = 0, row t of A' at t >= 1
    row, ys = (min(t, region[0]), region[1]), tuple(range(n + 2, n + m + 2))
    pres.row_quotient = _modulo(ps, fs, n + 1, t, row, row, ys)
    return pres


def _modulo(ps: PointSet, fs: FunctionSpaces, z: int, t: int, window: tuple[int, int],
            region: tuple[int, int], variables: tuple[int, ...],
            **fields) -> GradedModulePresentation:
    """A' = <x>^t S/J modulo z on the window, over ``variables``, holding
    the pieces of rows t..region[0] and columns up to region[1], every map
    by the one rule of ``intersected_presentation``, as its gather where
    the cell below the target is the source's own.  Its builder also takes
    other rows of functions than the source piece's, and reads them at a
    subset ``read`` of the target's basis pivots
    (``_kernel_presentation``)."""
    n, m, p = ps.n, ps.m, ps.p
    dz = var_degree(z, n, m)

    def below(d):
        lo = (d[0] - dz[0], d[1] - dz[1])
        return lo if lo[0] >= t and lo[1] >= 0 else None

    @cache
    def fresh(d):
        # which of V_d's pivots are not pivots of the cell below
        mask = np.ones(ps.N, dtype=bool)
        if (lo := below(d)) is not None:
            mask[fs.cell(lo)[1]] = False
        return mask[fs.cell(d)[1]]

    def piece(d):
        # the functions on the points that stand for the basis of the piece
        # at d, and their pivots: the rows of V_d's RREF cell at the pivots
        # that the cell below lacks, all of V(t-1, 0) at (t-1, 0); at t = 0
        # z's flag stores them as its block at d where it holds one
        if t == 0 and (block := fs.block(d, along_row=z == n + 1)) is not None:
            return block
        basis, pivots = fs.cell(d)
        return basis[fresh(d)], pivots[fresh(d)]

    def build(var, d, funcs=None, read=slice(None)):
        # var times the rows of funcs, reduced modulo the cell below the
        # target and read at the target's basis pivots: one column per row
        if d[0] < t and (d != (t - 1, 0) or var > n):
            raise ValueError(f"below row {t} only the crossing from {(t - 1, 0)} by an "
                             f"x-variable is built, not variable {var} at {d}")
        dv = var_degree(var, n, m)
        tgt, vals = (d[0] + dv[0], d[1] + dv[1]), ps.coordinate_values(var)
        keep, lo = piece(tgt)[1][read], below(tgt)
        if funcs is None and lo == d:
            # the gather: var * c, for a row c of V_d's cell with pivot q, is
            # (var - var(q)) * c modulo V_d; factors in (-p, p) times rows in
            # [0, p): exact in int64
            rows, pivots = piece(d)
            return (vals[keep, None] - vals[pivots]) * rows[:, keep].T % p
        funcs = piece(d)[0] if funcs is None else funcs
        image = funcs[:, keep] * vals[keep] % p
        if lo is not None:
            basis, pivots = fs.cell(lo)
            image -= matmul(funcs[:, pivots] * vals[pivots] % p, basis[:, keep], p)
        return (image % p).T

    # z is a nonzerodivisor, so dim (A'/zA')_d = H(d) - H(d - deg z), with
    # H the sweep's at rows i >= t; A' is zero below row t, so modulo x0
    # row t is all of V(t, .)
    # rows past r_x read row r_x, clamped in Python ints: t may pass int64
    rows = np.array([min(i, fs.box[0]) for i in range(t, region[0] + 1)], dtype=np.int64)
    H = fs.hilbert(rows, np.arange(region[1] + 1))
    dims = H.copy()
    dims[dz[0]:, dz[1]:] -= H[: len(H) - dz[0], : region[1] + 1 - dz[1]]
    return GradedModulePresentation(n, m, p, window, dims, variables, free_rows=t,
                                    _builder=build, _piece=piece, **fields)


def betti_box(ps: PointSet, t: int) -> tuple[int, int]:
    """Corner of the Betti box of S/(I_X ∩ <x>^t), of S/I_X at t = 0: no
    Betti number lies past (max(t, r_x) + n, r_y + m) (see the module
    docstring)."""
    rx, ry = regularity_box(ps)
    return max(t, rx) + ps.n, ry + ps.m


@dataclass
class BettiTable:
    """Sparse bigraded Betti numbers beta_{k,(i,j)} over a window."""

    n: int
    m: int
    window: tuple[int, int]
    entries: dict
    kmax: int
    boundary_clean: bool

    def layer(self, k: int) -> dict:
        return {(i, j): b for (kk, i, j), b in self.entries.items() if kk == k}

    def max_stage(self) -> int:
        return max((k for (k, _, _) in self.entries), default=0)

    def to_json(self) -> str:
        rows = [{"k": k, "i": i, "j": j, "beta": b}
                for (k, i, j), b in sorted(self.entries.items())]
        return json.dumps({"n": self.n, "m": self.m,
                           "window": list(self.window), "kmax": self.kmax,
                           "boundary_clean": self.boundary_clean,
                           "entries": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        data = json.loads(text)
        entries = {(r["k"], r["i"], r["j"]): r["beta"] for r in data["entries"]}
        return cls(data["n"], data["m"], tuple(data["window"]), entries,
                   data["kmax"], data["boundary_clean"])


@cache
def _subsets(variables: tuple[int, ...], n: int, k: int) -> tuple:
    """The k-subsets of the variables in lex order, each with its bidegree."""
    out = []
    for T in combinations(variables, k):
        a = sum(1 for v in T if v <= n)
        out.append((T, (a, k - a)))
    return tuple(out)


def _strand_snapshot(pres, d, k):
    """Summands of K_k at d: (subset, piece degree, dim, offset)."""
    out = []
    offset = 0
    for T, (a, b) in _subsets(pres.variables, pres.n, k):
        piece = (d[0] - a, d[1] - b)
        if dim := pres.dim(piece):
            out.append((T, piece, dim, offset))
            offset += dim
    return out, offset


def _reach(nonzero: np.ndarray, degrees) -> np.ndarray:
    """Mask of the cells d with nonzero[d - e] for some bidegree e in
    ``degrees``: the cells whose strand reads a marked piece through a
    summand of one of those bidegrees."""
    wi, wj = nonzero.shape
    out = np.zeros_like(nonzero)
    for a, b in degrees:
        if a < wi and b < wj:
            out[a:, b:] |= nonzero[: wi - a, : wj - b]
    return out


def _live_cells(pres, kmax) -> np.ndarray:
    """Mask over ``dims``, whose row 0 is row t = free_rows, of the cells
    whose strand needs a rank: a nonzero summand in some K_k with
    k <= kmax, and a piece short of R's, but at the origin, whose strand
    gives beta_0 with no rank, and at t >= 1 in rows t..t+n of column 0,
    which the column-0 step reads (see the module docstring).  Row t is
    dropped when the row quotient gives it."""
    degrees = {deg for k in range(kmax + 1)
               for _, deg in _subsets(pres.variables, pres.n, k)}
    live = _reach(pres.dims > 0, degrees)
    nx, ny = pres.split
    t, (rows, cols) = pres.free_rows, pres.dims.shape
    # R's piece dimensions on the rows held, capped above every piece
    free = pres.dims == generic_hilbert_matrix(int(pres.dims.max(initial=0)) + 1, nx - 1,
                                               ny - 1, (t + rows - 1, cols - 1))[t:]
    # A' = <x>^t M has M's table but in those rows (see the module docstring)
    free[: pres.n + 1 if t else 1, 0] = False
    live &= ~free
    if pres.row_quotient is not None:
        live[:1] = False
    return live


def _differential(pres, src, tgt) -> np.ndarray:
    """The block matrix of the Koszul differential from the nonempty
    summands ``src`` of K_k to the nonempty summands ``tgt`` of K_(k-1)."""
    row_of = {T: (dim, off) for T, _, dim, off in tgt}
    size = [terms[-1][2] + terms[-1][3] for terms in (tgt, src)]
    mat = np.zeros(size, dtype=np.int64)
    for T, piece, dim, off in src:
        for pos, v in enumerate(T):
            U = T[:pos] + T[pos + 1:]
            if U not in row_of:
                continue  # facet lands in a zero piece: zero block
            udim, uoff = row_of[U]
            block = pres.map(v, piece)
            # rank reduces the signed entries
            mat[uoff:uoff + udim, off:off + dim] = -block if pos % 2 else block
    return mat


def _betti_cell(pres, d, kmax, onto=True) -> dict:
    """The nonzero dimensions dim H_k, k <= kmax, of the Koszul strand at d.
    Every differential is ranked, but with ``onto`` the map K_1 -> K_0 is
    not assembled and its rank is read as dim K_0: the module is cyclic, or
    generated where K_1 is zero (see the module docstring)."""
    summands, dims = zip(*(_strand_snapshot(pres, d, k) for k in range(kmax + 2)))
    # ranks[k] is the rank of the differential K_k -> K_(k-1)
    ranks = [0] * (kmax + 2)
    if onto:
        ranks[1] = dims[0] if dims[1] else 0
    for k in range(2 if onto else 1, kmax + 2):
        if summands[k] and summands[k - 1]:
            ranks[k] = rank(_differential(pres, summands[k], summands[k - 1]), pres.p)
    homology = (dims[k] - ranks[k] - ranks[k + 1] for k in range(kmax + 1))
    return {k: h for k, h in enumerate(homology) if h}


def _row_table(row, kmax, stalls=None) -> dict:
    """The Betti table {(k, j): beta}, k <= kmax, of a presentation whose
    pieces lie in its one row ``free_rows``, over its y-variables.  Without
    ``stalls`` the row is a row quotient, generated in column 0 by
    g = dims[0] elements: K_1 -> K_0 is onto, and a column j >= 1 where the
    row is g times as wide as k[y]_j over its variables is free up to j, so
    its strand is exact and not ranked (Row t in the module docstring).
    ``stalls``, given for a kernel of the row split, marks the columns c
    onto which y0 maps column c - 1 isomorphically: K_1 -> K_0 is onto at
    a stall, and a column j whose columns j - h, h <= min(kmax + 1, number
    of y-variables but y0), are all stalls holds an exact strand and is not
    ranked (The row split)."""
    if not len(row.dims):
        return {}  # the window stops below the row
    i, ny, widths, onto = row.free_rows, len(row.variables), row.dims[0].tolist(), stalls is None
    # beta_{k,j} with k <= kmax reads the columns j - h, h <= k
    live = _reach(row.dims > 0, [(0, h) for h in range(min(kmax, ny) + 1)])[0]
    if not onto:
        live &= _reach(~stalls[None], [(0, h) for h in range(min(kmax + 1, ny - 1) + 1)])[0]
    table = {}
    for j in np.flatnonzero(live).tolist():
        if onto and j and widths[j] == widths[0] * comb(j + ny - 1, j):
            continue  # free up to column j: an exact strand
        for k, beta in _betti_cell(row, (i, j), kmax, onto or stalls[j]).items():
            table[(k, j)] = beta
    return table


def _kernel_rows(pres, kmax) -> dict:
    """The Betti numbers in rows i > t = free_rows of a presentation with
    one x-variable: beta_{k,(i,j)} is dim H_(k-1) at column j of the
    Koszul complex over the y-variables of the kernel Z_i of the x-variable
    from row i-1 to row i (see the module docstring).  Z_i is the drop
    dims[i-1, b] - dims[i, b] wide at column b, so a row where no column
    drops builds no map and ranks nothing, and nor does a row whose drops
    hold no two adjacent nonzero columns: its table is
    beta_{k+1,(i,b+k)} = C(ny, k) * Z_b over ny y-variables (The row
    split).  Its stalls, the columns c where sweep rows i-2..i do not grow
    from c - 1 to c, are read off the cumulative sums of ``dims``."""
    t, drops = pres.free_rows, pres.dims[:-1] - pres.dims[1:]
    ny, last = len(pres.variables) - 1, pres.dims.shape[1] - 1
    # H[h] is the sweep's row t - 1 + h, zero below row t; column 0 never stalls
    H = np.vstack([np.zeros_like(pres.dims[:1]), pres.dims.cumsum(axis=0)])
    flat = np.diff(H, axis=1, prepend=-1) == 0
    adjacent, (hs, bs) = (drops[:, :-1] * drops[:, 1:]).any(axis=1), np.nonzero(drops)
    entries, kernel = {}, adjacent.tolist()
    for h, b, z in zip(hs.tolist(), bs.tolist(), drops[hs, bs].tolist()):
        if not kernel[h]:
            # every strand differential has a zero end: H_k is all of K_k
            for k in range(min(kmax - 1, ny, last - b) + 1):
                entries[(k + 1, t + h + 1, b + k)] = comb(ny, k) * z
    for r in (np.flatnonzero(adjacent) + 1).tolist():
        zpres, stalls = _kernel_presentation(pres, t + r), flat[r - 1:r + 2].all(axis=0)
        for (k, j), beta in _row_table(zpres, kmax - 1, stalls).items():
            entries[(k + 1, t + r, j)] = beta
    return entries


def _kernel_presentation(pres, i) -> GradedModulePresentation:
    """Z_i = ker(x : M_(i-1,.) -> M_(i,.)) over the y-variables, its column
    b the piece at (0, b); x is the presentation's one x-variable, and
    i > free_rows.

    The basis of Z_i at column b is the identity where M_(i,b) = 0, else
    ``kernel_basis`` of the map of x, whose rows are the identity at the
    free columns: a kernel vector's coordinates are its values there.  The
    basis stands for the functions kernel basis times M's piece functions,
    taken once per column, and a y-map of Z_i applies y to them by M's
    rule, read only at the target piece's pivots at the free columns of
    the target's basis; M builds no y-map.  Z_i is not generated in column
    0, so the rank of K_1 -> K_0 is read only at a stall (The row split in
    the module docstring).
    """
    x, p, r = pres.variables[0], pres.p, i - pres.free_rows

    @cache
    def kernel(b):
        # a row basis of Z_i at column b and its free columns, None for all
        # of M_(i-1,b)
        if not pres.dims[r, b]:
            return None
        ker = kernel_basis(pres.map(x, (i - 1, b)), p)
        # RREF row r is zero left of its pivot, so a kernel row is nonzero
        # off its free column only at pivots left of it: the free column is
        # the row's last nonzero
        return ker, ker.shape[1] - 1 - np.argmax(ker[:, ::-1] != 0, axis=1)

    @cache
    def functions(b):
        # the functions on the points that Z_i's basis at column b stands for
        funcs, src = pres._piece((i - 1, b))[0], kernel(b)
        return funcs if src is None else matmul(src[0], funcs, p)

    def build(var, d):
        tgt = kernel(d[1] + 1)
        return pres._builder(var, (i - 1, d[1]), functions(d[1]),
                             slice(None) if tgt is None else tgt[1])

    drop = pres.dims[r - 1] - pres.dims[r]
    return GradedModulePresentation(pres.n, pres.m, p, (0, pres.window[1]), drop[None],
                                    pres.variables[1:], _builder=build)


def _column_0(pres, entries, kmax) -> dict:
    """Column 0 of S/J, J = I_X ∩ <x>^t with t = free_rows >= 1, from the
    table ``entries`` of A' = A_{rows >= t} (step (b) of The sequence route):
    beta_{0,(0,0)} = 1 and, in row t + a, beta_a drops by rho_a and
    beta_(a+1) is the Eagon-Northcott number less rho_a.  rho_a is H(t, 0)
    at a = 0, ell * C(n, a) at t > r_x, and t on P^1 at t <= r_x (step (d));
    otherwise it is the rank of the crossing differential from the pieces
    V(t-1, 0) to the pieces V(t, 0) (step (c)).  H(t, 0) = dim V(t, 0) is
    the piece at (t, 0) modulo x0 or y0 alike."""
    n, t = pres.n, pres.free_rows

    def crossing(k, piece, dim):
        # K_k of the crossing, one piece per k-subset of x0..xn
        return [(T, piece, dim, i * dim) for i, T in enumerate(combinations(range(n + 1), k))]

    entries[(0, 0, 0)] = 1
    for a in range(min(n, kmax, len(pres.dims) - 1) + 1):
        d = (t + a, 0)
        eagon_northcott = comb(t + n, t + a) * comb(t + a - 1, a)
        if a == 0 or t > pres.rx:
            rho = pres.dim((t, 0)) * comb(n, a)  # onto: step (c) at a = 0, else (d)
        elif n == 1:
            rho = eagon_northcott  # injective, I_(π1 X) is free: step (d)
        else:
            src = crossing(a + 1, (t - 1, 0), len(pres._piece((t - 1, 0))[0]))
            tgt = crossing(a, (t, 0), pres.dim((t, 0)))
            rho = rank(_differential(pres, src, tgt), pres.p)
        entries[(a, *d)] = entries.get((a, *d), 0) - rho
        if a < kmax:
            entries[(a + 1, *d)] = eagon_northcott - rho
    return {key: beta for key, beta in entries.items() if beta}


def betti_numbers(pres: GradedModulePresentation,
                  kmax: int | None = None) -> BettiTable:
    """Betti table of the presented module on its window, for k <= kmax.

    The entries are exact at every cell of the window.  Cells the mask
    drops hold none, and every other cell ranks its strand but K_1 -> K_0
    (see the module docstring).  On a presentation with a ``row_quotient``
    row t = free_rows is that quotient's table over y1..ym (see Row t in
    the module docstring); then at t >= r_x each row t + a is C(n, a)
    times row t's table, a stages up (step (a) of The sequence route); on
    P^1 below r_x each row i > t is the y-variables' Betti table, shifted
    up by one homological degree, of the kernel of x1 from row i-1 to row
    i, so a row where x1 loses no dimension builds no map and ranks
    nothing (The row split); otherwise the rows above t, and every row of
    a presentation with no quotient, rank their live cells.  At t >= 1 the
    presentation holds A' = A_{rows >= t}, and one column-0 step reads the
    table of S/J off the long exact Tor sequence of
    0 -> A_{rows >= t} -> S/J -> S/<x>^t -> 0 (see The sequence route):
    beta_{0,(0,0)} = 1 and the Eagon-Northcott numbers of <x>^t less rho_a
    in rows t..t+n.
    boundary_clean records whether the window contains the presentation's
    Betti box, so the table holds every Betti number of the module and
    global reads (projective dimension, shape totals) are exact.  It is
    False for a window that misses the box, and for a presentation with no
    known box; such a table may lack entries past the window, and ``pdim``
    refuses it.
    """
    if kmax is None:
        kmax = pres.n + pres.m + 2
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    n, t, quotient = pres.n, pres.free_rows, pres.row_quotient
    entries = {}
    if quotient is not None:
        # rows t..t+n are C(n, a) times row t's table at t >= r_x (Künneth)
        top = min(n, len(pres.dims) - 1) if t >= pres.rx else 0
        for (k, j), beta in _row_table(quotient, kmax).items():
            for a in range(min(top, kmax - k) + 1):
                entries[(k + a, t + a, j)] = comb(n, a) * beta
    if quotient is not None and n == 1 and t < pres.rx:
        entries.update(_kernel_rows(pres, kmax))
    elif quotient is None or t < pres.rx:
        for i, j in (np.argwhere(_live_cells(pres, kmax)) + (t, 0)).tolist():
            for k, beta in _betti_cell(pres, (i, j), kmax).items():
                entries[(k, i, j)] = beta
    if t:
        entries = _column_0(pres, entries, kmax)
    return BettiTable(pres.n, pres.m, tuple(pres.window), entries, kmax, pres.complete)


def pdim(bt: BettiTable) -> int:
    if not bt.boundary_clean:
        raise WindowTooSmall("window %s misses the Betti box" % (bt.window,))
    return bt.max_stage()


def betti_window(N: int, n: int, m: int) -> tuple[int, int]:
    return N + n, generic_corner(N, m) + m + 2


@dataclass
class MrcReport:
    """Per-cell comparison of beta_1 against the difference-matrix reading."""

    window: tuple[int, int]
    generic: bool
    passed: bool
    predicted: dict
    beta1: dict
    mismatches: list


def mrc_window(N: int) -> tuple[int, int]:
    return N + 1, min_cover_degree(N, 2) + 1


def mrc_check(ps: PointSet) -> MrcReport:
    """Check that beta_1 of I_X is read off the first negative entries of DH.

    Positivity of beta_1 at (i,j) is predicted exactly when DH(i,j) < 0 and
    no cell of the downset except the origin is positive; the predicted
    value is -DH(i,j).  The window is ``mrc_window(N)``.  Requires a
    generic Hilbert matrix, decided by ``is_generic_hilbert``; a
    non-generic set short-circuits with generic=False.  A generic set's
    Hilbert matrix is the generic one on every window, so DH is read off
    ``generic_hilbert_matrix`` and not off the set.
    """
    if (ps.n, ps.m) != (1, 2):
        raise ValueError("difference-matrix reading is specific to n=1, m=2")
    window = mrc_window(ps.N)
    if not is_generic_hilbert(ps):
        return MrcReport(window, False, False, {}, {}, [])
    dh, predicted = _mrc_prediction(ps.N)
    b1 = betti_numbers(point_presentation(ps, window), kmax=1).layer(1)
    # both hold only positive values, so a cell in neither agrees
    mismatches = [{"cell": d, "dh": int(dh[d]), "predicted": predicted.get(d, 0),
                   "beta1": b1.get(d, 0)}
                  for d in sorted(predicted.keys() | b1.keys())
                  if predicted.get(d, 0) != b1.get(d, 0)]
    return MrcReport(window, True, not mismatches, dict(predicted), b1, mismatches)


@lru_cache(maxsize=64)
def _mrc_prediction(N: int) -> tuple[np.ndarray, dict]:
    """DH of the generic Hilbert matrix on ``mrc_window(N)``, read-only, and
    the beta_1 it predicts: -DH at each first negative cell.  Both depend on
    N alone, so they are memoized, with a bound; a caller copies the dict."""
    dh = dh_p1p2(generic_hilbert_matrix(N, 1, 2, mrc_window(N)))
    # the largest entry of each cell's downset, the origin read as 0
    best = dh.copy()
    best[0, 0] = 0
    best = np.maximum.accumulate(np.maximum.accumulate(best, axis=0), axis=1)
    first = (dh < 0) & (best <= 0)
    first[0, 0] = False
    dh.flags.writeable = False
    return dh, {(int(i), int(j)): -int(dh[i, j]) for i, j in np.argwhere(first)}
