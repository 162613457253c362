import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydcat import (
    AtomCloud,
    CollectiveOverlap,
    NumericalError,
    OverlapMatrix,
    ParameterError,
    Polarization,
    collective_from_matrix,
    collective_overlap,
    legendre_p2,
    overlap_matrix,
    pair_overlap,
    pair_overlap_projected,
    pair_statistics,
)

from rydcat.bessel import _TAYLOR_CUTOFF
from rydcat.overlap import (
    _TILE_PAIRS,
    _branch_overlap,
    _drive_phase,
    _pair_block,
    _mean_width,
    _row_blocks,
    _two_product,
    _two_sum,
    collective_pairs,
    incident_wavevector,
    tile_clouds,
)

from oracles import (
    branch_mismatch_longdouble,
    grid_collective_overlap,
    pair_overlap_mpmath,
    pair_overlap_quadrature,
)


def test_legendre_p2_values():
    assert legendre_p2(1.0) == 1.0
    assert legendre_p2(0.0) == -0.5
    assert legendre_p2(1.0 / math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(legendre_p2(np.array([0.0, 1.0])), [-0.5, 1.0])


class TestPolarization:
    def test_circular_has_no_bilinear_self_overlap(self):
        assert Polarization.circular().self_overlap == pytest.approx(0.0, abs=1e-15)

    def test_linear_has_full_self_overlap(self):
        assert Polarization.linear().self_overlap == pytest.approx(1.0, abs=1e-15)
        assert Polarization.linear((0, 1, 0)).self_overlap == pytest.approx(1.0)

    @pytest.mark.parametrize("size", [1e-170, 1e200])
    def test_linear_axis_of_any_finite_size(self, size):
        # axis . axis underflows at 1e-170 and overflows at 1e200; the
        # axis is rescaled first, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pol = Polarization.linear((size, size, 0.0))
        assert pol.jones.tobytes() == Polarization.linear((1.0, 1.0, 0.0)).jones.tobytes()

    @pytest.mark.parametrize("axis, message", [
        ((0.0, 0.0, 0.0), "cannot be zero"),
        ((math.inf, 0.0, 0.0), "must be finite"),
        ((0.0, math.nan, 0.0), "must be finite"),
    ])
    def test_linear_rejects_degenerate_axis(self, axis, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=message):
                Polarization.linear(axis)

    def test_rejects_unnormalized_jones(self):
        with pytest.raises(ParameterError):
            Polarization(jones=np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ParameterError):
            Polarization(jones=np.array([math.nan, 0.0, 0.0]))

    def test_jones_is_a_read_only_copy(self):
        # The scalar closed forms use the components taken when it was
        # built, so the array they came from must not change under them.
        source = Polarization.circular().jones.copy()
        pol = Polarization(source)
        source[:] = (0.0, 0.0, 1.0)
        assert pol.jones.tobytes() == Polarization.circular().jones.tobytes()
        with pytest.raises(ValueError):
            pol.jones[0] = 1.0

    def test_circular_components(self):
        jones = Polarization.circular().jones
        assert jones[0] == pytest.approx(1.0 / math.sqrt(2.0))
        assert jones[1] == pytest.approx(1.0j / math.sqrt(2.0))
        assert jones[2] == 0.0


class TestPairOverlap:
    def test_projected_kernel_frozen_value(self):
        # transverse pair (projection 0) at separation 5 wavenumbers
        assert pair_overlap_projected(5.0, 0.0) == pytest.approx(
            -0.2591504599751903, rel=1e-12
        )

    def test_unit_at_zero_separation(self):
        assert pair_overlap_projected(0.0, 0.7) == 1.0
        one = pair_overlap(
            np.zeros(3), np.zeros(3), np.array([0.0, 0.0, -7.0]),
            Polarization.circular(),
        )
        assert one == 1.0 + 0.0j

    @pytest.mark.parametrize("pol", [Polarization.circular(),
                                     Polarization.linear(),
                                     Polarization.linear((0, 1, 1))])
    def test_matches_solid_angle_quadrature(self, pol):
        # the closed form against direct integration of the two dipole
        # radiation patterns over emission directions
        rng = np.random.default_rng(11)
        k_in = 2.0 * math.pi * np.array([0.0, 0.0, -1.0])
        for _ in range(3):
            x_i, x_j = rng.normal(0.0, 0.6, size=(2, 3))
            got = pair_overlap(x_i, x_j, k_in, pol)
            expect = pair_overlap_quadrature(x_i, x_j, k_in, pol.jones)
            assert got == pytest.approx(expect, abs=1e-10)

    def test_conjugate_under_swap(self):
        rng = np.random.default_rng(3)
        x_i, x_j = rng.normal(size=(2, 3))
        k_in = np.array([1.0, 2.0, -3.0])
        pol = Polarization.circular()
        assert pair_overlap(x_j, x_i, k_in, pol) == pytest.approx(
            pair_overlap(x_i, x_j, k_in, pol).conjugate()
        )


    @pytest.mark.parametrize("projection", [2.0, -0.1, math.nan, 1.0 + 2e-9,
                                            np.array([0.5, 1.5])])
    def test_projection_outside_unit_interval_refused(self, projection):
        # A projection of 2 gave a pair overlap of 1.18, above 1.
        with pytest.raises(ParameterError, match="projection must be in"):
            pair_overlap_projected(1.0, projection)

    def test_projection_rounding_slack_accepted(self):
        assert pair_overlap_projected(0.0, 1.0 + 1e-9) == 1.0
        assert pair_overlap_projected(3.0, np.float64(0.0)) == (
            pair_overlap_projected(3.0, 0.0))


class TestMeanWidth:
    def test_bits_where_the_product_is_normal(self):
        # The cube root of the product, as the Monte Carlo and the thermal
        # forms took it before they shared this helper.
        rng = np.random.default_rng(17)
        widths = np.concatenate([rng.uniform(0.1, 10.0, (10000, 3)),
                                 10.0 ** rng.uniform(-100.0, 100.0, (10000, 3))])
        for sig in widths.tolist():
            assert _mean_width(sig) == float(np.cbrt(np.prod(np.asarray(sig))))

    @pytest.mark.parametrize("width", [1e-110, 1e-170, 1e-300, 5e-324,
                                       1e120, 1e200, 1.7e308])
    def test_scales_past_the_normal_range(self, width):
        # The product underflows or overflows here; the mean does not.
        assert _mean_width((width,) * 3) == pytest.approx(width, rel=4e-16, abs=0.0)
        if 1e-300 <= width <= 1e200:
            skewed = (width / 8.0, width, width * 8.0)
            assert _mean_width(skewed) == pytest.approx(width, rel=4e-16, abs=0.0)


class TestAtomCloud:
    def test_sample_shapes_and_wavenumber(self):
        cloud = AtomCloud.sample(50, (3.3, 4.5, 1.7), 0.78,
                                 np.random.default_rng(0))
        assert cloud.positions.shape == (50, 3)
        assert cloud.n_atoms == 50
        assert cloud.wavenumber == pytest.approx(2.0 * math.pi / 0.78)
        assert np.linalg.norm(cloud.k_in) == pytest.approx(cloud.wavenumber)

    def test_sample_is_rng_driven(self):
        a = AtomCloud.sample(10, (1, 1, 1), 1.0, np.random.default_rng(42))
        b = AtomCloud.sample(10, (1, 1, 1), 1.0, np.random.default_rng(42))
        assert np.array_equal(a.positions, b.positions)

    def test_rejects_single_atom(self):
        with pytest.raises(ParameterError):
            AtomCloud(positions=np.zeros((1, 3)), k_in=np.array([0.0, 0.0, 1.0]))

    def test_rejects_zero_direction(self):
        with pytest.raises(ParameterError):
            AtomCloud.sample(5, (1, 1, 1), 1.0, np.random.default_rng(0),
                             direction=(0, 0, 0))

    @pytest.mark.parametrize("name,value", [
        ("n_atoms", 20.0),
        ("n_atoms", -1),
        ("n_atoms", 1),
        ("wavelength", 0.0),
        ("wavelength", math.inf),
        ("wavelength", math.nan),
        ("sigmas", (1.0, 2.0)),
        ("sigmas", (1.0, -2.0, 3.0)),
        ("sigmas", (1.0, math.inf, 1.0)),
        ("direction", (0.0, 1.0)),
    ])
    def test_sample_rejects_bad_input(self, name, value):
        # The error names the input it rejects.
        args = dict(n_atoms=5, sigmas=(1.0, 1.0, 1.0), wavelength=0.78,
                    rng=np.random.default_rng(0))
        args[name] = value
        with pytest.raises(ParameterError, match=name):
            AtomCloud.sample(**args)

    @pytest.mark.parametrize("bad", ["positions", "k_in"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad, value):
        fields = {"positions": np.zeros((3, 3)), "k_in": np.array([0.0, 0.0, 1.0])}
        fields[bad] = fields[bad].copy()
        fields[bad][-1] = value
        with pytest.raises(ParameterError):
            AtomCloud(**fields)


class TestPairOverlapsOracle:
    # Pairs of a reference cloud (N = 260) against a 40-digit evaluation
    # from each pair's own separation.  Atom 1 sits 1e-3 um from the
    # atom with the largest drive phase k.x, where a rank-1 phase is
    # hardest to get right, on the Taylor branch of the Bessel
    # functions; atoms 2 and 3 coincide.
    K_IN = incident_wavevector(0.78, (0.0, 0.0, -1.0))

    def cloud(self):
        rng = np.random.default_rng(2024)
        pos = rng.standard_normal((260, 3)) * (3.3, 4.5, 1.7)
        far = int(np.argmax(np.abs(pos @ self.K_IN)))
        pos[[0, far]] = pos[[far, 0]]
        pos[1] = pos[0] + (6e-4, -5e-4, 7e-4)
        pos[3] = pos[2]
        return rng, pos

    def max_error(self, pos, picks):
        jones = Polarization.circular().jones
        iu, ju = np.triu_indices(pos.shape[0], k=1)
        cloud = AtomCloud(positions=pos, k_in=self.K_IN)
        got = overlap_matrix(cloud, Polarization.circular()).s[iu, ju]
        assert np.linalg.norm(self.K_IN) * np.linalg.norm(pos[0] - pos[1]) \
            < _TAYLOR_CUTOFF
        coincident = iu.tolist().index(2)  # the pair (2, 3)
        assert got[coincident] == pytest.approx(1.0, abs=1e-15)
        from mpmath import mpc

        return max(
            float(abs(pair_overlap_mpmath(pos[iu[m]], pos[ju[m]], self.K_IN,
                                          jones)
                      - mpc(complex(got[m]))))
            for m in np.concatenate([[0, coincident], picks])
        )

    def test_reference_cloud(self):
        rng, pos = self.cloud()
        assert abs(pos[0] @ self.K_IN) > 40.0
        picks = rng.choice(260 * 259 // 2, size=1000, replace=False)
        assert self.max_error(pos, picks) <= 1e-15

    def test_cloud_far_from_origin(self):
        rng, pos = self.cloud()
        picks = rng.choice(260 * 259 // 2, size=200, replace=False)
        assert self.max_error(pos + (60.0, -80.0, 100.0), picks) <= 1e-15


def test_pair_indices_are_shared_read_only():
    iu, ju, cells = _pair_block(7, 0, 6, 1)
    assert _pair_block(7, 0, 6, 1)[0] is iu
    assert not any(index.flags.writeable for index in (iu, ju, cells))
    expect_i, expect_j = np.triu_indices(7, k=1)
    assert np.array_equal(iu, expect_i) and np.array_equal(ju, expect_j)
    # Pair (i, j) lands in cell (i, j) of the block's 6 x 7 rectangle.
    assert np.array_equal(cells, 7 * expect_i + expect_j)


@pytest.mark.parametrize("n", [2, 3, 91, 92, 260])
def test_pair_blocks_tile_the_upper_triangle(n):
    # Row blocks of at most _TILE_PAIRS pairs, in triu order, for any
    # number of stacked clouds.
    blocks = _row_blocks(n)
    assert blocks[0][0] == 0 and blocks[-1][1] == n - 1
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    clouds = tile_clouds(n)
    assert clouds * n * (n - 1) // 2 <= _TILE_PAIRS or clouds == 1
    iu, ju = np.triu_indices(n, k=1)
    for stack in {1, clouds}:
        got = [_pair_block(n, start, stop, stack) for start, stop in blocks]
        for cloud in range(stack):
            i = np.concatenate([g[0].reshape(stack, -1)[cloud] for g in got])
            j = np.concatenate([g[1].reshape(stack, -1)[cloud] for g in got])
            assert np.array_equal(i, iu + n * cloud)
            assert np.array_equal(j, ju + n * cloud)
        for (start, stop), (i, _, cells) in zip(blocks, got):
            assert i.size <= _TILE_PAIRS * stack or stop == start + 1
            assert cells.size == i.size


def _assert_cells_fill_rectangle(n, start, stop, stack):
    # Every pair of every stacked cloud lands in its own cell of the
    # block's zeroed rectangle, at (cloud, i - start, j - start), and
    # no cell on or below the diagonal is written.
    i, j, cells = _pair_block(n, start, stop, stack)
    shape = (stack, stop - start, n - start)
    rect = np.zeros(math.prod(shape))
    np.add.at(rect, cells, 1.0)
    assert rect.max() == 1.0 and rect.sum() == i.size
    cloud, row, col = np.unravel_index(cells, shape)
    assert np.array_equal(cloud, i // n) and np.array_equal(cloud, j // n)
    assert np.array_equal(row, i % n - start)
    assert np.array_equal(col, j % n - start)
    rect = rect.reshape(shape)
    assert not np.any(np.tril(rect))


@pytest.mark.parametrize("n", [2, 3, 91, 92, 260])
def test_pair_cells_fill_each_rectangle_once(n):
    for stack in {1, tile_clouds(n)}:
        for start, stop in _row_blocks(n):
            _assert_cells_fill_rectangle(n, start, stop, stack)


def test_pair_cells_of_a_large_cloud():
    # N = 5000: single-row blocks first, then blocks of shrinking rows.
    for start, stop in _row_blocks(5000):
        _assert_cells_fill_rectangle(5000, start, stop, 1)


@pytest.mark.parametrize("n, polarization, digest", [
    (37, "circular",
     "6ca3651d68de2e42f3523c98f8b63f00972891dd776231c8ee9c6e2203b0e474"),
    (37, "linear",
     "757b0e3f2c6ea013d6bc3836e499235ffa5006319375a6d792516fdade700cd4"),
    (300, "circular",
     "8117ec6c01f76274ab3def0272b5fe08aed7c7f3751782c823c7029826ab3919"),
    (300, "linear",
     "76e9b744edf5e2c9bc197c794368ad5dea3f5a2951fa16a81855160ad0fe17c9"),
])
def test_overlap_matrix_bytes_pinned(n, polarization, digest):
    # sha256 of the matrix's bytes, captured while each pair's drive
    # phase was still applied inside the pair kernel; the matrix must not
    # move when the phase moves out of it.  numpy's float64 tan is a SIMD
    # loop on AVX-512 hosts and libm elsewhere, which can differ by an
    # ulp, and so can these bytes.
    pol = (Polarization.circular() if polarization == "circular"
           else Polarization.linear((0.0, 1.0, 1.0)))
    cloud = AtomCloud.sample(n, (3.3, 4.5, 1.7), 0.78,
                             np.random.default_rng(n))
    s = overlap_matrix(cloud, pol).s
    assert hashlib.sha256(s.tobytes()).hexdigest() == digest


def drive_phase_three_axes(positions, k_in):
    # _drive_phase as it was before it skipped the drive's zero axes:
    # every axis, read in place along the last dimension.
    x = np.moveaxis(positions, -1, 0)
    hi, lo = _two_product(x[0], k_in[0])
    for axis in (1, 2):
        p, err = _two_product(x[axis], k_in[axis])
        hi, err_sum = _two_sum(hi, p)
        lo = lo + (err_sum + err)
    cos, sin = np.cos(hi), np.sin(hi)
    phase = np.empty(hi.shape, dtype=complex)
    phase.real = cos - sin * lo
    phase.imag = -(sin + cos * lo)
    return phase


@pytest.mark.parametrize("direction", [
    (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (0.3, -0.5, 0.8),
])
def test_drive_phase_skips_zero_axes_bit_for_bit(direction):
    # A zero axis adds only zeros, so skipping it keeps every bit of a
    # random cloud's phase, for one cloud and a stack.
    k_in = incident_wavevector(0.78, direction)
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((7, 50, 3)) * (3.3, 4.5, 1.7)
    for positions in (stack, stack[0], stack + 100.0):
        assert (_drive_phase(positions, k_in).tobytes()
                == drive_phase_three_axes(positions, k_in).tobytes())


def test_row_blocks_of_a_large_cloud():
    # Rows longer than a tile get a block each; later rows share one.
    n = 5000
    blocks = _row_blocks(n)
    sizes = [sum(n - 1 - row for row in range(a, b)) for a, b in blocks]
    assert sum(sizes) == n * (n - 1) // 2
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for (start, stop), size in zip(blocks, sizes):
        assert size <= _TILE_PAIRS or stop == start + 1
    assert blocks[0] == (0, 1) and sizes[-1] <= _TILE_PAIRS


class TestOverlapMatrix:
    def make(self, n=20, seed=5):
        cloud = AtomCloud.sample(n, (2.0, 2.0, 2.0), 0.78,
                                 np.random.default_rng(seed))
        return cloud, overlap_matrix(cloud, Polarization.circular())

    @pytest.mark.parametrize("n", [6, 300])
    def test_filled_tile_by_tile(self, n):
        # N = 300 spans 12 row blocks; the first and last pair of every
        # block and a random sample are checked against the lone pair.
        cloud, matrix = self.make(n=n)
        s = matrix.s
        blocks = _row_blocks(n)
        assert (len(blocks) > 1) == (n == 300)
        assert np.array_equal(s, s.conj().T)
        assert np.all(np.diagonal(s) == 1.0)
        rng = np.random.default_rng(n)
        picks = [(start, start + 1) for start, _ in blocks]
        picks += [(stop - 1, n - 1) for _, stop in blocks]
        picks += [tuple(sorted(rng.choice(n, 2, replace=False)))
                  for _ in range(100)]
        pol = Polarization.circular()
        for i, j in picks:
            expect = pair_overlap(cloud.positions[i], cloud.positions[j],
                                  cloud.k_in, pol)
            assert s[i, j] == pytest.approx(expect, abs=1e-13)

    def test_exactly_hermitian_unit_diagonal(self):
        _, matrix = self.make()
        matrix.validate(atol=0.0)

    def test_entries_match_pairwise_function(self):
        cloud, matrix = self.make(n=6)
        pol = Polarization.circular()
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                expect = pair_overlap(cloud.positions[i], cloud.positions[j],
                                      cloud.k_in, pol)
                assert matrix.s[i, j] == pytest.approx(expect, abs=1e-13)

    def test_validate_flags_corruption(self):
        _, matrix = self.make(n=4)
        bad = matrix.s.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(ParameterError):
            OverlapMatrix(s=bad).validate()
        bad[0, 1] = math.nan
        with pytest.raises(ParameterError):
            OverlapMatrix(s=bad).validate()


class TestCollectiveOverlap:
    def test_two_atoms_always_fully_overlap(self):
        # removing the excited atom from a pair leaves a single emitter
        # either way: the two branch modes coincide identically
        for seed in range(5):
            cloud = AtomCloud.sample(2, (1.5, 1.5, 1.5), 0.78,
                                     np.random.default_rng(seed))
            result = collective_overlap(cloud, Polarization.circular())
            assert result.c_up_dn == pytest.approx(1.0 + 0.0j, abs=1e-12)
            assert result.b_up_dn == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_quadrature(self):
        # brute force: build both collective far-field patterns on a
        # direction grid and integrate their product
        pol = Polarization.circular()
        for seed in (1, 2):
            cloud = AtomCloud.sample(5, (0.3, 0.3, 0.3), 1.0,
                                     np.random.default_rng(seed))
            result = collective_overlap(cloud, pol)
            expect = grid_collective_overlap(cloud.positions, cloud.k_in,
                                             pol.jones)
            assert result.c_up_dn == pytest.approx(expect, abs=1e-10)

    def test_magnitude_bounded_by_one(self):
        for seed in range(8):
            cloud = AtomCloud.sample(30, (1.0, 1.0, 1.0), 0.78,
                                     np.random.default_rng(seed))
            result = collective_overlap(cloud, Polarization.circular())
            assert abs(result.c_up_dn) <= 1.0 + 1e-12
            assert 0.0 <= result.b_up_dn <= 2.0

    def test_per_atom_weights_accompany_result(self):
        cloud = AtomCloud.sample(12, (1.0, 1.0, 1.0), 0.78,
                                 np.random.default_rng(9))
        result = collective_overlap(cloud, Polarization.circular())
        assert result.per_atom is not None
        assert result.per_atom.shape == (12,)
        assert np.all(result.per_atom > 0.0)

    def test_rejects_unnormalizable_matrix(self):
        s = np.array([[1.0, -1.2], [-1.2, 1.0]], dtype=complex)
        with pytest.raises(NumericalError):
            collective_from_matrix(OverlapMatrix(s=s))

    def test_result_validation(self):
        with pytest.raises(ParameterError):
            CollectiveOverlap(c_up_dn=1.5 + 0.0j, b_up_dn=0.5)


class TestCollectiveStack:
    # collective_pairs reduces whole tiles of clouds in one
    # _branch_overlap call, so a stacked reduction must fail on a bad
    # member exactly as the one-matrix reduction fails on that member
    # alone.  The stack is fed to _branch_overlap as dense row sums and
    # quadratic forms.
    def good(self, seed):
        cloud = AtomCloud.sample(3, (1.0, 1.0, 1.0), 0.78,
                                 np.random.default_rng(seed))
        return overlap_matrix(cloud, Polarization.circular()).s

    @staticmethod
    def reduce(stack):
        def quadratic(eps):
            return (eps[:, None, :] @ stack.real @ eps[:, :, None])[:, 0, 0]

        return _branch_overlap(stack.sum(axis=2), quadratic)

    def assert_same_failure(self, bad, error):
        with pytest.raises(error) as alone:
            collective_from_matrix(OverlapMatrix(s=bad))
        stack = np.stack([self.good(1), bad, self.good(2)])
        with pytest.raises(error) as stacked:
            self.reduce(stack)
        assert str(stacked.value) == str(alone.value)

    def test_punctured_mode_failure_matches_lone_member(self):
        # the symmetric mode keeps norm 0.6; puncturing atom 2 leaves -0.4
        bad = np.array([[1.0, -1.2, 0.0], [-1.2, 1.0, 0.0], [0.0, 0.0, 1.0]],
                       dtype=complex)
        self.assert_same_failure(bad, NumericalError)

    def test_magnitude_failure_matches_lone_member(self):
        # all three normalizations positive, yet |c| = 1.0016
        bad = np.array([[1.0, 0.0, 1.2], [0.0, 1.0, 1.3], [1.2, 1.3, 1.0]],
                       dtype=complex)
        self.assert_same_failure(bad, ParameterError)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_nan_entry_is_a_numerical_failure(self, entry):
        # NaN fails the normalization guards, as a nonpositive norm does.
        bad = self.good(3)
        bad[entry] = bad[entry[::-1]] = np.nan
        self.assert_same_failure(bad, NumericalError)

    def test_nan_overlap_fails_the_magnitude_check(self):
        with pytest.raises(ParameterError):
            CollectiveOverlap(c_up_dn=complex(np.nan, 0.0), b_up_dn=np.nan)

    def test_members_reduce_as_alone(self):
        stack = np.stack([self.good(seed) for seed in range(4)])
        record = self.reduce(stack)
        c, b, per_atom = (record[name] for name in ("c_up_dn", "b", "per_atom"))
        for i, s in enumerate(stack):
            alone = collective_from_matrix(OverlapMatrix(s=s))
            assert c[i] == alone.c_up_dn
            assert b[i] == alone.b_up_dn
            assert per_atom[i].tobytes() == alone.per_atom.tobytes()


class TestPairListReduction:
    # collective_pairs (the Monte Carlo's reduction, straight from the
    # pairs, tile by tile) against the dense collective_from_matrix, and
    # both against the same reduction in long double.  The old
    # b = 1 - Re c was off by 2.4e-6 relative at N = 260 and 2.9e-3 at
    # N = 2000.
    POL = Polarization.circular()

    def clouds(self, n, count, seed):
        rng = np.random.default_rng(seed)
        return [AtomCloud.sample(n, (3.3, 4.5, 1.7), 0.78, rng)
                for _ in range(count)]

    @pytest.mark.parametrize("n", [2, 3, 13, 64, 92, 300])
    def test_matches_dense_reduction(self, n):
        clouds = self.clouds(n, 3, n)
        positions = np.stack([cloud.positions for cloud in clouds])
        k_in = clouds[0].k_in
        record = collective_pairs(positions, k_in, self.POL.jones)
        c, b, mean, mean_sq, per_atom = (
            record[name] for name in ("c_up_dn", "b", "s12", "s12_sq", "per_atom"))
        assert np.array_equal(c.real, 1.0 - b)
        iu, ju = np.triu_indices(n, k=1)
        for m, cloud in enumerate(clouds):
            matrix = overlap_matrix(cloud, self.POL)
            dense = collective_from_matrix(matrix)
            pairs = matrix.s[iu, ju]
            assert abs(b[m] - dense.b_up_dn) <= 1e-13 * max(dense.b_up_dn, 1e-300)
            assert abs(c[m] - dense.c_up_dn) <= 1e-15
            assert dense.c_up_dn.real == 1.0 - dense.b_up_dn
            assert np.allclose(per_atom[m], dense.per_atom, rtol=1e-13, atol=0.0)
            assert abs(mean[m] - pairs.mean()) <= 1e-16
            assert mean_sq[m] == pytest.approx(np.mean(np.abs(pairs) ** 2),
                                               rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [260, 1000, 2000])
    def test_long_double_oracle(self, n):
        (cloud,) = self.clouds(n, 1, n)
        matrix = overlap_matrix(cloud, self.POL)
        expect = float(branch_mismatch_longdouble(matrix.s))
        dense = collective_from_matrix(matrix)
        b = collective_pairs(cloud.positions[None], cloud.k_in,
                             self.POL.jones)["b"][0]
        # Both stay within ~1e-15; a blockaded-mode deviation formed as a
        # difference of inverse norms, not from row-sum differences,
        # lands near 1.5e-14.
        assert abs(dense.b_up_dn - expect) <= 4e-15 * expect
        assert abs(b - expect) <= 4e-15 * expect
        assert abs(b - dense.b_up_dn) <= 1e-13 * expect
        assert dense.c_up_dn.real == 1.0 - dense.b_up_dn


@pytest.mark.parametrize("reduce, limit", [
    (overlap_matrix, 1.15 * 16 * 2000**2),  # the matrix itself, plus a tile
    (collective_overlap, 12 * (2000 * 1999 // 2)),  # 12 B per pair
], ids=["overlap_matrix", "collective_overlap"])
def test_traced_peak_memory_of_one_cloud(reduce, limit):
    # numpy reports its buffers to tracemalloc.  Beyond its own 16 B N^2
    # (or 8 B per pair for the pair list), a call holds one tile of pairs.
    cloud = AtomCloud.sample(2000, (3.3, 4.5, 1.7), 0.78,
                             np.random.default_rng(2000))
    tracemalloc.start()
    try:
        reduce(cloud, Polarization.circular())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


class TestPairStatistics:
    def test_hand_built_matrix(self):
        s = np.eye(3, dtype=complex)
        s[0, 1] = 0.1 + 0.2j
        s[1, 0] = s[0, 1].conjugate()
        s[0, 2] = -0.3j
        s[2, 0] = s[0, 2].conjugate()
        s[1, 2] = 0.5
        s[2, 1] = 0.5
        mean, mean_sq = pair_statistics(OverlapMatrix(s=s))
        assert mean == pytest.approx((0.1 + 0.2j - 0.3j + 0.5) / 3.0)
        assert mean_sq == pytest.approx((0.05 + 0.09 + 0.25) / 3.0)

    def test_rejects_single_atom_matrix(self):
        with pytest.raises(ParameterError):
            pair_statistics(OverlapMatrix(s=np.eye(1, dtype=complex)))


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_collective_overlap_invariants(seed):
    cloud = AtomCloud.sample(15, (1.2, 0.8, 2.0), 0.78,
                             np.random.default_rng(seed))
    matrix = overlap_matrix(cloud, Polarization.circular())
    matrix.validate(atol=0.0)
    result = collective_from_matrix(matrix)
    assert abs(result.c_up_dn) <= 1.0 + 1e-12
