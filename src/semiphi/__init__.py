"""Checks and constructions for module maps over block C*-algebras.

The package decides, certifies, and constructs: complete positivity of maps
on block-diagonal matrix algebras (Choi, Kraus, Stinespring views), exact and
semi compatibility of module maps with a CP map, the extension of a semi
compatible map from a submodule to the whole module, the obstruction to
exactly compatible extensions, and corner-structured operator-system maps.

Importing the package runs none of its layers.  Each is registered in
``sys.modules`` as a lazy module that is compiled and run when one of its
attributes is first read, so a process loads only the layers it uses.  A
public name is looked up in its layer on every read (running the layer the
first time).
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Layer (package module) -> the public names it defines.
_EXPORTS = {
    "numerics": (
        "DEFAULT_TOL",
        "HermiticityError",
        "PsdReport",
        "SelfCheckError",
        "ShapeError",
        "ToleranceProfile",
        "column_span_onb",
        "is_psd",
        "least_squares_operator",
        "nullspace_onb",
    ),
    "algebra": ("BlockAlgebra", "contains", "off_block_mass", "pinch"),
    "cpmaps": (
        "CPMap",
        "NotCompletelyPositiveError",
        "StinespringDilation",
        "choi",
        "compose",
        "from_kraus",
        "identity_cp_map",
        "is_completely_positive",
        "kraus",
        "stinespring",
        "trace_cp_map",
        "transpose_map",
    ),
    "modules": (
        "BlockEmbedding",
        "ConcreteModule",
        "MembershipError",
        "ModuleValidation",
        "embed_module",
        "inner_product_matrix",
        "is_contained_pair",
        "is_submodule",
        "orthogonal_complement",
        "validate_module",
    ),
    "extension": (
        "ExtensionInputError",
        "ExtensionReport",
        "ExtensionResult",
        "GramPair",
        "KsgnsResult",
        "ModuleMap",
        "ObstructionReport",
        "PhiMapReport",
        "PreconditionError",
        "SemiPhiReport",
        "SemiPhiWitness",
        "canonical_compacts_extension",
        "compare_extensions",
        "extend_semi_phi",
        "gram_pair",
        "is_completely_semi_phi",
        "is_nondegenerate",
        "is_phi_map",
        "ksgns",
        "phi_extension_obstruction",
        "semiphi_witness",
        "zero_module_map",
    ),
    "paulsen": (
        "CornerReport",
        "PaulsenSystem",
        "SystemDecompositionError",
        "SystemMap",
        "block_map",
        "build_system",
        "decompose_system_element",
        "example_3_4_map",
        "injectivity_demo",
        "is_corner_preserving",
        "is_cp_system_map",
    ),
    "serialization": (),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def _register(layer: str):
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached: a read always sees what the layer holds now, so a function
    # patched in its layer after the first read is the one returned.
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
