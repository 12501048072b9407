"""Fusion rings, modular data, and modular invariant couplings.

Submodules:
  fusion      fusion rings, quantum dimensions, cyclic current subgroups
  modular     Omega/Y/S/T construction from exact weights
  catalog     built-in models and branching tables
  commutant   invariant enumeration (echelonized commutant + oracle)
  classify    structural reports for invariants, one or a whole list
  graphs      ADE/tadpole catalog, su(2) nimreps, spectral assignment
  extensions  admissible extensions, Z_n invariants, restriction
  cli         command line interface and serialization
"""

from .fusion import FusionRing, quantum_dimensions, simple_currents, verify_axioms
from .modular import (
    ModelSpec,
    ModularData,
    SpinAssignment,
    build,
    degenerate_sectors,
    is_nondegenerate,
    tensor_product,
    verlinde_check,
)
from .catalog import (
    BranchingTable,
    branching_catalog,
    model_by_name,
    so8_level1_model,
    so16_level1_model,
    su2_model,
    sun_current_model,
    zn_model,
)
from .commutant import (
    brute_force_enumerate,
    commutant_basis,
    enumerate_invariants,
    is_invariant,
    t_support,
)
from .classify import classify_invariant, classify_list, find_parents, type1_decomposition
from .graphs import Graph, ade_assignment, graph_catalog
from .extensions import rehren_admissible, restrict, theta_vector, zn_invariant

__version__ = "0.1.0"
