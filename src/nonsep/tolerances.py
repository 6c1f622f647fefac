"""Named geometric thresholds shared across the package.

The verdicts listed below compare against these constants and scale
functions.  Of the functions a verdict runs, only `lp.solve` takes a
tolerance (``LP`` or ``SUBGRADIENT``); the `sigma_bisection` bracket
width is a constant of `asymmetry`.  Numerical guards such as pivot and
rank cut-offs are still literals in their own modules.

Fixed thresholds:

* ``GEOM`` (1e-9), coordinate-scale zero: a facet normal or support
  direction this short is zero (`Polytope.from_facets`, `Polytope.support`);
  a facet offset or vertex norm this small (times the largest, when below 1)
  puts the origin off the interior (`gauge`, `polar`; a polar facet offset
  in `from_facets`: unbounded); a singular value of centred vertices this
  small times the largest is zero (`polytope._affine_rank`); a 1-D extent
  or Chebyshev radius (in power-of-two units of max |offset| below 1) this
  small is degenerate; a d x d determinant this small times its row norms'
  product (Hadamard's bound) is zero (`polytope._singular`: parallelotope
  edges, `Lattice.from_basis`, `is_generic`).
* ``LP`` (1e-8), the default phase-1 threshold of `lp.solve`, whose
  phase 1 is a free LP's dual: for `contains_translate`, the
  hull-disjointness test of `is_ns` for d >= 3 (phase 1 on lambda, mu >=
  0, each summing to 1, with va^T lambda = vb^T mu), the flat probe of
  `is_kwip_sampled` for k >= 2, the face test of `is_summand` (run only
  when no witness holds, see ``ROUNDING``) and the reflection LP of
  `sigma_bisection`.  An "infeasible" carries its Farkas vector only when
  it passes the ``ROUNDING`` check.
* ``ROUNDING`` (16 machine epsilons), the slack a written-down witness
  gets in `lp.witnessed`: row i holds at x when
  a_i @ x - b_i <= ROUNDING * (|a_i| @ |x| + |b_i|), which forgives the
  rounding of the product and nothing more.  `lp.solve`'s Farkas vector y
  gets the same slack: it is returned only when |A.T y| <= ROUNDING *
  (|A|.T y) column by column, y >= 0 and b @ y < 0; `family._components`
  has members meet when (x_j - x_i) . u exceeds t_i h(u) + t_j h(-u) by
  at most ROUNDING times the sum of both sides' sizes.  A witness settles
  the face test of `is_summand` (a vertex v of the exposed face, or v - e,
  for the edge e) and the `ball_circumradius` optimality certificate (the
  least-squares weights of the active unit gradients) without their LP.
  `feas` would be too loose here: it lets an edge that overhangs its face
  by 3e-8 at unit scale pass as a translate inside it, where the LP says no.
* ``REFLECT_FIT`` (1e-12), a `sigma_bisection` centre counts as feasible
  at mu only when it meets every reflection row within this times
  max(1, |rhs|), so LP round-off cannot pass a mu below sigma.  Only such
  a centre lowers the upper end; the lower end rises to any other trial,
  or to the root of its checked Farkas vector (see ``ROUNDING``).  A
  centre the LP finds that misses by more (a near fit) counts as none,
  and places the next trial as a root does.
* ``SUBGRADIENT`` (1e-9), the phase-1 threshold of the `ball_circumradius`
  optimality certificate (0 in the hull of the active unit gradients),
  whose LP runs only when no witness holds (see ``ROUNDING``): max t over
  u_i @ x + t <= 0, whose dual's phase 1 is on weights y >= 0 summing to
  1 with u.T y = 0.
* ``LAMBDA_ONE`` (1e-7), `wip_summand_check` accepts lambda_min up to
  1 + LAMBDA_ONE as "at most 1", and the covering scenario's
  `expect_lambda_le` check allows the same slack above its bound.
* ``GAP`` (1e-9), a gap at or below this is touching, and touching is
  not separation: the interval sweep `family._first_gap`, over member
  projections in `is_wns`, component intervals in planar `is_ns` and edge
  pieces in `edges_covered` (where a piece may also end up to GAP before
  it starts).  Planar `is_ns` sees at least half of each component split's
  widest gap, so a split wider than 2 GAP is always found.
* ``PARALLEL`` (1e-12), `family._spans` treats a facet row whose
  product with the line direction is at most this as parallel to it.
* ``FACET_MERGE`` (100 GEOM), two unit facet rows this close, with
  offsets this close relative to their size, are one facet
  (`Polytope.from_vertices`; `Polytope.from_facets`, for its rows and
  for its polar hull's facets, i.e. its vertices).
* ``NS_LATTICE`` (1e-9), `is_ns_lattice` calls an arrangement
  non-separable when its shortest dual vector reaches 1/2 - NS_LATTICE in
  the polar gauge.
* ``ENCLOSE`` (1e-9), relative: `enclose(radius)` is ENCLOSE times the
  radius when larger than 1.  A `ball_circumradius` candidate encloses
  every ball reaching at most that far past its radius, and the active
  set stops once no ball reaches farther.
* ``PAIR_COINCIDE`` (1e-14), two ball centers at most this far apart give
  no `ball_circumradius` pair candidate (a singleton covers them).
* ``AFFINE_RANK`` (1e-10), a `ball_circumradius` subset whose span has a
  QR diagonal entry below this is affinely degenerate and skipped.
* ``CENTRE_COINCIDE`` (1e-12), a `ball_circumradius` center this close to
  an active ball's center certifies itself (the full unit ball of
  gradients is available there).
* ``BEND_XTOL`` (1e-14), the `brentq` xtol of `stability_construction`'s bend.
* ``NO_SIGNAL`` (1e-12), a circumradius deficit at or below this carries
  no signal: both slopes of the stability scenario, fitted to one
  `stability_trace` (the deviation slope by `stability_exponent`), drop
  the bend.
* ``CUBE_CANDIDATE`` (1e-12), breaks ties between the two ends of a
  `shadow_normalize` move: the cube goes to the high end only when that
  scores more than this above the low end.
* ``CUBE_SCORE`` (1e-9), `shadow_normalize` raises `GeometryError` when
  the better end scores more than this below the current family, which
  the convexity of hull measures rules out, and `exhaustive_max` keeps
  the first permutation beating the best so far by more than this.
* ``POLAR_SIGMA`` (1e-6), relative slack of `polar_sigma_check`.

Thresholds that scale GEOM with the size of the data (``scale`` is the
largest coordinate or offset in play; below 1 it counts as 1):

* `feas`: how far a point may sit outside a halfspace and still count as
  inside. Vertex/facet agreement in `polytope`, the Farkas weight test of
  `lutwak_check`, cover certificates in `covering`, and the certificate
  of every free LP, each solved through its dual in `lp` (each row, and
  the duality gap, scaled by the largest product in play). The line clip
  `family._spans` takes `feas(1.0)`, in `is_kwip_sampled` (k = 0 and 1)
  times the member vertices' widest axis extent when below 1: a facet row
  parallel to the line blocks it when violated by more, and a line or
  point hits a member when its span is non-empty up to it.  The cover
  test that `is_kwip_sampled` runs first (`family._covers_hull`) and its
  settling of sample points that lie in a member (`family._open_rows`,
  before the clip or the k >= 2 LPs) use no threshold.
* `tight`: how close a vertex must sit to a facet plane to lie on it,
  or to another vertex to count as one.  Vertex/facet agreement and rows
  shaving off less than a merged vertex in `Polytope.from_facets`,
  `edges` (whose facets tight at both ends of an edge are also those of
  the face test of `is_summand`, both at the body's own scale), and the
  antipodal vertices of `Polytope.is_origin_symmetric`.
* `active` (``ACTIVE`` 1e-9, or ``ACTIVE_REL`` 1e-7 times the radius
  when larger): how close to the radius a ball must reach to count as
  active in `ball_circumradius`, both for the balls its active set keeps
  and for the gradients its optimality certificate uses.
"""

from __future__ import annotations

GEOM = 1e-9
LP = 1e-8
REFLECT_FIT = 1e-12
SUBGRADIENT = 1e-9
LAMBDA_ONE = 1e-7
GAP = 1e-9
PARALLEL = 1e-12
FACET_MERGE = 100 * GEOM
NS_LATTICE = 1e-9
ENCLOSE = 1e-9
ROUNDING = 16 * 2.0 ** -52
POLAR_SIGMA = 1e-6
PAIR_COINCIDE = 1e-14
AFFINE_RANK = 1e-10
CENTRE_COINCIDE = 1e-12
BEND_XTOL = 1e-14
NO_SIGNAL = 1e-12
CUBE_CANDIDATE = 1e-12
CUBE_SCORE = 1e-9
ACTIVE = 1e-9
ACTIVE_REL = 1e-7


def feas(scale: float = 1.0) -> float:
    """Point-in-polytope slack: generous against solve round-off."""
    return 100.0 * GEOM * max(1.0, scale)


def tight(scale: float = 1.0) -> float:
    """Facet tightness threshold used when classifying vertices, and the
    distance under which two computed points count as one vertex."""
    return 1e3 * GEOM * max(1.0, scale)


def active(radius: float) -> float:
    """Band below an enclosing radius in which a ball counts as active."""
    return max(ACTIVE, ACTIVE_REL * radius)


def enclose(radius: float) -> float:
    """How far a ball may reach past an enclosing radius and count as inside."""
    return ENCLOSE * max(1.0, radius)
