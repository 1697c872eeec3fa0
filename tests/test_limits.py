"""The size limits of `localmq._bits`: each is accepted at its value and
refused with EnumerationLimitError one above it."""

import numpy as np
import pytest

from localmq import (
    DecisionTree,
    Distribution,
    DnfFormula,
    EnumerationLimitError,
    Leaf,
    LearnerConfig,
    OracleSession,
    PLUS_MINUS,
    PrfTarget,
    SparsePolynomial,
    learn_tree_uniform,
    tree_to_polynomial,
)
from localmq import verify
from localmq._bits import (
    ENUM_MAX_BITS,
    MAX_BITS,
    PRF_MAX_BITS,
    QP_MAX_FEATURES,
    TRANSFORM_MAX_BITS,
    all_masks,
)
from localmq.distributions import TABLE
from localmq.fourier import MONOMIAL_01, UNIFORM_PM, ProductBasis
from localmq.generators import random_tree
from localmq.oracles import AUDIT_COUNTS
from localmq.reduction import LinearCode, build_code

TARGETS = {
    "sparse_poly": lambda n: SparsePolynomial(n, {1 << (n - 1): 1.0}),
    "decision_tree": lambda n: DecisionTree(n, Leaf(1)),
    "dnf": lambda n: DnfFormula(n, (((n - 1, True),),)),
}
DISTRIBUTIONS = {
    "uniform": lambda n: Distribution.uniform(n),
    "product": lambda n: Distribution.product([0.1] * n),
    "table": lambda n: Distribution(TABLE, n, PLUS_MINUS, probs=None),
}


class TestPointWidth:
    @pytest.mark.parametrize("kind", sorted(TARGETS))
    def test_targets(self, kind):
        target = TARGETS[kind](MAX_BITS)
        ends = [0, (1 << MAX_BITS) - 1]
        assert target.value_batch(np.array(ends)).tolist() == [target.value_at(m) for m in ends]
        with pytest.raises(EnumerationLimitError, match=f"n <= {MAX_BITS}, got {MAX_BITS + 1}"):
            TARGETS[kind](MAX_BITS + 1)

    @pytest.mark.parametrize("kind", ["uniform", "product"])
    def test_distributions_draw_every_bit(self, kind):
        masks = DISTRIBUTIONS[kind](MAX_BITS).sample_batch(np.random.default_rng(0), 4000)
        assert masks.min() >= 0 and masks.max() < 1 << MAX_BITS
        # every bit is drawn: none stays fixed over 4000 draws
        assert np.bitwise_or.reduce(masks) == (1 << MAX_BITS) - 1
        with pytest.raises(EnumerationLimitError, match=f"n <= {MAX_BITS}, got {MAX_BITS + 1}"):
            DISTRIBUTIONS[kind](MAX_BITS + 1)

    def test_table_distribution(self):
        # a table is refused at any width above the enumeration limit
        for n in (MAX_BITS, MAX_BITS + 1):
            with pytest.raises(EnumerationLimitError):
                DISTRIBUTIONS["table"](n)

    @pytest.mark.parametrize("n", [64, 70])
    def test_wide_product_is_refused_not_truncated(self, n):
        with pytest.raises(EnumerationLimitError):
            Distribution.product([0.1] * n)

    def test_code_length(self):
        assert build_code(30, 3).m == MAX_BITS
        LinearCode(30, MAX_BITS, 0, tuple(1 << i for i in range(30)))
        with pytest.raises(EnumerationLimitError, match=f"m <= {MAX_BITS}, got {MAX_BITS + 1}"):
            LinearCode(30, MAX_BITS + 1, 0, tuple(1 << i for i in range(30)))


class TestEnumeration:
    def test_all_masks(self):
        assert all_masks(ENUM_MAX_BITS).size == 1 << ENUM_MAX_BITS
        with pytest.raises(EnumerationLimitError):
            all_masks(ENUM_MAX_BITS + 1)

    def test_table_distribution(self):
        size = 1 << ENUM_MAX_BITS
        assert Distribution.table(np.full(size, 1.0 / size)).n == ENUM_MAX_BITS
        with pytest.raises(EnumerationLimitError, match=f"n <= {ENUM_MAX_BITS}"):
            Distribution.table(np.full(2 * size, 0.5 / size))


class TestCostLimits:
    def test_prf_keystream_table(self):
        assert PrfTarget(PRF_MAX_BITS, 0).n == PRF_MAX_BITS + 1
        with pytest.raises(EnumerationLimitError, match=f"secret_n <= {PRF_MAX_BITS}"):
            PrfTarget(PRF_MAX_BITS + 1, 0)

    def test_direct_transform(self, monkeypatch):
        # past the check the transform enumerates the cube; stop it there
        class Enumerated(Exception):
            pass

        def stop(n):
            raise Enumerated(n)

        monkeypatch.setattr(verify, "all_masks", stop)
        oracle = verify.VerifierOracle()
        with pytest.raises(Enumerated):
            oracle.direct_transform(DecisionTree(TRANSFORM_MAX_BITS, Leaf(1)), UNIFORM_PM)
        with pytest.raises(EnumerationLimitError, match=f"n <= {TRANSFORM_MAX_BITS}"):
            oracle.direct_transform(DecisionTree(TRANSFORM_MAX_BITS + 1, Leaf(1)), UNIFORM_PM)

    def test_exact_l1_least_squares(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, QP_MAX_FEATURES + 1))
        labels = rng.normal(size=40)
        weights, _ = verify.VerifierOracle().exact_l1_least_squares(features[:, :-1], labels, 1.0)
        assert np.abs(weights).sum() <= 1.0 + 1e-9
        with pytest.raises(EnumerationLimitError, match=f"features <= {QP_MAX_FEATURES}"):
            verify.VerifierOracle().exact_l1_least_squares(features, labels, 1.0)


class TestWideCube:
    """Path expansion and the learners never enumerate the cube, so they run
    past ENUM_MAX_BITS."""

    @pytest.mark.parametrize("seed", range(3))
    def test_tree_to_polynomial_at_40_bits(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(40, 8, rng, max_depth=4)
        masks = rng.integers(0, 1 << 40, size=2000, dtype=np.int64)
        product = ProductBasis(tuple(rng.uniform(-0.5, 0.5, size=40)))
        for basis in (UNIFORM_PM, MONOMIAL_01, product):
            spec = tree_to_polynomial(tree, basis)
            assert np.max(np.abs(spec.value_batch(masks) - tree.value_batch(masks))) < 1e-9

    def test_counts_only_tree_uniform_at_40_bits(self):
        tree = random_tree(40, 4, np.random.default_rng(0), max_depth=3)
        session = OracleSession(
            tree, Distribution.uniform(40), r=40, seed=0, audit_mode=AUDIT_COUNTS
        )
        config = LearnerConfig(epsilon=0.1, delta=0.05, t=4, m=200, est_samples=3000, seed=0)
        out = learn_tree_uniform(session, config)
        masks = np.random.default_rng(1).integers(0, 1 << 40, size=4000, dtype=np.int64)
        assert np.mean(out.predict_batch(masks) != tree.value_batch(masks)) <= 0.1
        assert out.error_estimates["zero_one"] <= 0.1
