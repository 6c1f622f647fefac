"""Non-separable arrangements of convex polytope homothets.

Library surface, by area:

* `nonsep.polytope`: dual-representation polytopes, support functions,
  polarity, containment of translates, genericity, circumscribed simplices.
* `nonsep.family`: finite homothet families; weak non-separability,
  non-separability, sampled k-flat impassability, hull edge coverage.
* `nonsep.covering`: minimal homothetic coverings (interval rule, weighted
  center, exact LP ratio, asymmetry-scaled cover), summand tests.
* `nonsep.asymmetry`: Minkowski asymmetry by LP and by bisection.
* `nonsep.lattice`: lattice arrangements, tightness brackets, the dual
  shortest-vector separability criterion, equidistribution gaps.
* `nonsep.cubes`: integer unit-cube families, extremal constructions and
  exhaustive search.
* `nonsep.balls`: ball families and the near-collinearity stability
  experiment.
* `nonsep.scenarios` / `nonsep.cli`: reproducible experiment driver.
* `nonsep.tolerances`: the fixed thresholds every predicate compares against.
"""

from .errors import GeometryError, InputError

__all__ = ["GeometryError", "InputError"]
