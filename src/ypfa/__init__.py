"""Yukawa forces in sphere-plane and finite-disk geometries.

Closed forms for the exact, parallel-plate-mapped (PFA) and surface-element
(EPFA) force schemes, an independent adaptive-quadrature oracle validating
every closed form, and tooling that turns force residuals into
coupling-strength exclusion bounds.
"""

__version__ = "0.1.0"

from .core import (G_DEFAULT, INFINITE, NO_LAYER, DegenerateInputError, Disk, InputError, Layer,
                   LayeredSlab, LayeredSphere, PhysicalConstants, PoleProximityError,
                   PowerLawParams, YukawaParams)
from .disk import (AxisProbe, XiInputs, disk_gravity_force, disk_power_force,
                   disk_yukawa_force, disk_yukawa_potential, xi_power, xi_yukawa)
from .layered import (EtaDeltaResult, LayeredConfig, eta_delta, layered_epfa_energy,
                      layered_epfa_force, layered_pfa_force, layered_slab_potential)
from .limits import (ExclusionPoint, ResidualBound, alpha_limit, exclusion_curve, limit_shift)
from .oracle import (OracleReport, QuadratureSpec, oracle_disk_point,
                     oracle_layered_sphere_slab, oracle_layered_stack_potential,
                     oracle_slab_slab_pressure, oracle_slicing_equivalence,
                     oracle_sphere_slab_yukawa, oracle_two_spheres)
from .sweeps import SweepGrid
from .yukawa import (EtaResult, SphereSlabConfig, eta, slab_slab_pressure, sphere_slab_force_exact,
                     sphere_slab_force_pfa)
