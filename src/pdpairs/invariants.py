"""Fundamental triples and the nu invariant.

The triple of a verified pair is (pi_1-system, orientation character, class);
nu sends the class to a module morphism from the cochain cokernel F^2 into
the augmentation ideal, and duality forces that morphism to be a homotopy
equivalence in the derived category.  Everything here works at pair level:
when no classifying complex is supplied the class is recorded with a
"pair-level" flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import LambdaComplex, LambdaMatrix, apply_matrix
from .groups import GroupModel, RingElem
from .pairs import ChainPairData, PDVerdict, SurfaceDescription
from .presented import (
    DerivedVerdict,
    F_functor,
    ModuleMorphism,
    PresentedModule,
    augmentation_ideal,
    augmentation_ideal_generators,
    derived_equivalence,
    express_in_ideal,
    morphism_null_in_derived,
)


class InvariantError(ValueError):
    pass


@dataclass
class ComponentSignature:
    name: str
    group: object                    # GroupModel | SurfaceDescription | None
    kappa: dict                      # generator name -> ambient group key

    def kappa_names(self, model):
        return {g: model.format_elem(k) for g, k in self.kappa.items()}


@dataclass
class FundamentalTriple:
    system: list                     # ComponentSignature, in component order
    model: GroupModel                # carries omega
    mu: list                         # integer vector over D_n cells
    mu_degree: int
    level: str                       # "pair" | "classifying"
    pair: ChainPairData | None = None


def extract_triple(pair: ChainPairData, verdict: PDVerdict) -> FundamentalTriple:
    """The triple of a verified pair; raises on unverified input."""
    if not verdict.passed():
        raise InvariantError("extract_triple requires a verified pair")
    system = [ComponentSignature(c.name, c.group, dict(c.kappa))
              for c in pair.boundary_components]
    return FundamentalTriple(system, pair.model,
                             list(verdict.fundamental_class),
                             verdict.class_degree, "pair", pair)


def _sampled_homomorphism_check(phi, model_a, model_b, samples=40, seed=2):
    elems = model_a.sample_elements(samples, radius=2, seed=seed)
    for i in range(0, len(elems) - 1, 2):
        a, b = elems[i], elems[i + 1]
        if phi(model_a.mul(a, b)) != model_b.mul(phi(a), phi(b)):
            return False
    return True


def triples_isomorphic_under(phi, phi_inv, t1: FundamentalTriple,
                             t2: FundamentalTriple,
                             orientation_flip: bool = False) -> bool:
    """Check an explicitly supplied isomorphism of pi_1-systems.

    phi / phi_inv are key maps between the ambient models.  The underlying
    complexes must correspond cell-for-cell (same names and shapes); the
    check is that phi transports boundaries, omega, the component systems,
    and the class (negated when the orientation flag is set).
    """
    m1, m2 = t1.model, t2.model
    if not _sampled_homomorphism_check(phi, m1, m2):
        raise InvariantError("phi is not a homomorphism on samples")
    for g in m1.sample_elements(20, radius=2, seed=5):
        if phi_inv(phi(g)) != g:
            raise InvariantError("phi_inv does not invert phi on samples")
    for g in m1.sample_elements(20, radius=2, seed=7):
        if m2.omega(phi(g)) != m1.omega(g):
            return False
    p1, p2 = t1.pair, t2.pair
    if p1 is None or p2 is None:
        raise InvariantError("triples must carry their pairs")
    if p1.P.ranks != p2.P.ranks or p1.sub_cells != p2.sub_cells:
        return False
    # boundaries correspond under phi
    for d in p1.P.degrees():
        b1 = p1.P.boundary_or_zero(d)
        b2 = p2.P.boundary_or_zero(d)
        for i in range(b1.rows):
            for j in range(b1.cols):
                moved = RingElem(m2, {phi(g): c
                                      for g, c in b1.data[i][j].support.items()})
                if moved != b2.data[i][j]:
                    return False
    # component systems correspond (by name, kappa transported)
    if len(t1.system) != len(t2.system):
        return False
    by_name = {c.name: c for c in t2.system}
    for comp in t1.system:
        other = by_name.get(comp.name)
        if other is None:
            return False
        if set(comp.kappa) != set(other.kappa):
            return False
        for gen, key in comp.kappa.items():
            if phi(key) != other.kappa[gen]:
                return False
    # the class transports on the nose (cells fixed, coefficients integral)
    mu1 = list(t1.mu)
    if orientation_flip:
        mu1 = [-c for c in mu1]
    return mu1 == list(t2.mu)


# ---------------------------------------------------------------------------
# nu


@dataclass
class NuMorphism:
    source: PresentedModule
    target: PresentedModule
    morphism: ModuleMorphism
    raw_images: list                 # bar((d x)_i) per F-generator
    verdict: DerivedVerdict | None = None

    def matrix_pretty(self):
        return self.morphism.matrix.pretty()


def compute_nu(rel_complex: LambdaComplex, r: int, mu,
               radius: int = 4) -> NuMorphism:
    """The morphism F^r -> I representing nu of the class [1 (x) mu].

    mu is an integer vector over the (r+1)-cells; the representative sends
    a dual-basis class [phi] to bar(phi(d mu)).
    """
    model = rel_complex.model
    bd = rel_complex.boundary_or_zero(r + 1)
    from .intlinalg import mat_vec
    # the class must be a cycle in the Z^omega reduction
    lower = rel_complex.tensor_Zomega().boundary_or_zero(r + 1)
    if any(mat_vec(lower, list(mu))):
        raise InvariantError("mu is not a cycle")
    chain = apply_matrix(bd, [model.from_int(c) for c in mu])
    raw = [c.bar() for c in chain]
    for w in raw:
        if w.aug() != 0:
            raise InvariantError(
                "image escapes the augmentation ideal; input is not a cycle")
    f_mod = F_functor(rel_complex, r)
    ideal = augmentation_ideal(model)
    gens = augmentation_ideal_generators(model)
    cols = []
    for w in raw:
        if not gens:
            if not w.is_zero():
                raise InvariantError("nonzero image over the trivial group")
            cols.append([])
            continue
        cols.append(express_in_ideal(model, w, radius))
    matrix = LambdaMatrix.from_columns(model, ideal.ngens, cols)
    # well-definedness, exactly in Lambda: relations of F^r must map to zero
    rel = f_mod.relations
    for j in range(rel.cols):
        total = model.zero()
        for i in range(f_mod.ngens):
            rho = rel.data[i][j]
            if not rho.is_zero():
                total = total + rho * raw[i]
        if not total.is_zero():
            raise InvariantError("nu is not well defined; the input complex "
                                 "is inconsistent")
    morphism = ModuleMorphism(f_mod, ideal, matrix, check=False)
    return NuMorphism(f_mod, ideal, morphism, raw)


def nu_of_pair(pair: ChainPairData, x, radius: int = 4) -> NuMorphism:
    return compute_nu(pair.D, pair.dimension - 1, x, radius)


def nu_verdict(nu: NuMorphism, radius: int = 4) -> NuMorphism:
    nu.verdict = derived_equivalence(nu.morphism, radius)
    return nu


@dataclass
class RealisationReport:
    nu: NuMorphism
    verdict: DerivedVerdict
    contradiction: bool

    def status(self):
        if self.verdict.is_equivalence():
            return "homotopy-equivalence"
        if self.verdict.status == "unknown":
            return "unknown"
        return "contradiction"


def check_realisation_necessity(pair: ChainPairData, verdict: PDVerdict,
                                radius: int = 4) -> RealisationReport:
    """For a verified pair, nu of the class must be a homotopy equivalence;
    anything else is reported as a contradiction (input or engine bug)."""
    if not verdict.passed():
        raise InvariantError("requires a verified pair")
    nu = nu_verdict(nu_of_pair(pair, verdict.fundamental_class, radius),
                    radius)
    return RealisationReport(nu, nu.verdict, nu.verdict.status == "not")


def nu_difference_is_null(nu1: NuMorphism, nu2: NuMorphism,
                          radius: int = 4) -> str:
    """Compare two nu representatives over the same F^r and ideal."""
    if nu1.source.ngens != nu2.source.ngens:
        raise InvariantError("nu sources differ")
    diff = nu1.morphism - nu2.morphism
    return morphism_null_in_derived(diff, radius)
