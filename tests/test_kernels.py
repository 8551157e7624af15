"""Property tests for the shared kernels of morreylab.maximal: the
member-sum correlation (box prefix sums or FFT, chosen from the stencil), the
one FFT correlation behind it and behind every convolution of potentials,
its fast transform lengths, the exact uniform member measure,
the member table of trimmed, cell-keyed records and its bounded count
table, the chunked mean-oscillation gather, the max filter and block
footprint behind the scatter of member values, the one radius sweep, and the
radius loops' one member sum per distinct member."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import fftconvolve

from morreylab import maximal
from morreylab.grid import Field, make_grid, make_structure
from morreylab.maximal import (
    BallFamily,
    _box_sum,
    _correlate,
    _fast_len,
    _fft_correlate,
    _footprint_runs,
    _Forward,
    _max_filter,
    _Member,
    _mean_oscillation,
    _member_means,
    _rfftn,
    _Slabs,
    _stencil_count,
    _transform_lens,
    classical_maximal,
    classical_sharp,
    member_offsets,
)
from morreylab.norms import (NormSpec, _family_radii, _mixed_morrey_sup, _morrey_sup,
                             bmo_seminorms, evaluate_norm)
from morreylab.potentials import (KernelSpec, _linear_convolve, apply_kernel, apply_parabolic,
                                  elliptic_resolvent_kernel, newtonian_kernel_array,
                                  parabolic_kernel_array, riesz_kernel_array)

SETTINGS = settings(max_examples=60, deadline=None)


def brute_correlate(values, stencil, origin):
    """sum over offsets k of stencil[k] values(c + k - origin), zero outside;
    a boolean stencil weighs every offset it holds by one."""
    out = np.zeros(values.shape)
    ks = np.argwhere(stencil)
    lim = np.asarray(values.shape)
    for c in np.ndindex(values.shape):
        for k in ks:
            idx = np.asarray(c) + k - np.asarray(origin)
            if ((idx >= 0) & (idx < lim)).all():
                out[c] += stencil[tuple(k)] * values[tuple(idx)]
    return out


def mean_oscillation(values, stencil, origin, strides):
    """_mean_oscillation over the record of a bare stencil."""
    return _mean_oscillation(values, _Member(stencil, origin), strides)


def loop_mean_oscillation(values, stencil, origin, strides):
    """Reference: one anchor of the lattice arange(0, n, stride) at a time,
    members clipped to the domain."""
    offs = np.argwhere(stencil) - np.asarray(origin)
    lim = np.asarray(values.shape)
    mesh = np.meshgrid(*[np.arange(0, n, s) for n, s in zip(values.shape, strides)],
                       indexing="ij")
    out = np.zeros(mesh[0].shape)
    for pos in np.ndindex(out.shape):
        idx = np.array([m[pos] for m in mesh]) + offs
        ok = np.all((idx >= 0) & (idx < lim), axis=1)
        lin = tuple(idx[ok].T)
        g = values[lin]
        out[pos] = np.abs(g - g.mean()).mean()
    return out


@st.composite
def grids_and_stencils(draw, box):
    """(values, stencil, origin): small random grids in 1-3 D, with stencils
    that either fill a sub-box of their array (box backend) or are random."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    if box:
        stencil = np.zeros(shape, dtype=bool)
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(a, s - 1)) for a, s in zip(lo, shape)]
        stencil[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] = True
        values = draw(arrays(float, cells, elements=st.integers(-50, 50).map(float)))
    else:
        stencil = draw(arrays(bool, shape))
        stencil.flat[draw(st.integers(0, stencil.size - 1))] = True
        values = draw(arrays(float, cells, elements=st.floats(-10, 10)))
    origin = tuple(draw(st.integers(0, s - 1)) for s in shape)
    return values, stencil, origin


@SETTINGS
@given(grids_and_stencils(box=True))
def test_correlate_box_stencils_are_exact(case):
    # integer data: the prefix-sum backend reproduces brute force exactly,
    # including members clipped at the boundary and off-centre origins
    values, stencil, origin = case
    assert np.array_equal(_correlate(values, _Member(stencil, origin)),
                          brute_correlate(values, stencil, origin))


@SETTINGS
@given(grids_and_stencils(box=False))
def test_correlate_any_stencil_matches_brute_force(case):
    values, stencil, origin = case
    want = brute_correlate(values, stencil, origin)
    scale = 1.0 + np.abs(values).sum()
    assert np.allclose(_correlate(values, _Member(stencil, origin)), want, rtol=0,
                       atol=1e-12 * scale)


@st.composite
def real_kernels(draw):
    """(values, kernel, origin): a real kernel in 1-3 D, as large as or larger
    than the grid along any axis, its origin anywhere in it and often at
    either end (a cylinder's origin is its first t row)."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    kernel = draw(arrays(float, shape, elements=st.floats(-10, 10)))
    origin = tuple(draw(st.one_of(st.sampled_from((0, s - 1)), st.integers(0, s - 1)))
                   for s in shape)
    values = draw(arrays(float, cells, elements=st.floats(-10, 10)))
    return values, kernel, origin


@settings(max_examples=200, deadline=None)
@given(real_kernels())
def test_fft_correlate_real_kernels_match_brute_force(case):
    values, kernel, origin = case
    want = brute_correlate(values, kernel, origin)
    scale = 1.0 + np.abs(values).sum() * np.abs(kernel).max()
    assert np.allclose(_fft_correlate(values, kernel, origin), want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("end", ["first", "last"])
def test_fft_correlate_origin_at_either_end(end):
    # cylinders anchor at their first t row: origin 0; the mirrored case too
    rng = np.random.default_rng(7)
    values = rng.standard_normal((9, 7))
    kernel = rng.standard_normal((5, 11))
    origin = (0, 0) if end == "first" else (4, 10)
    want = brute_correlate(values, kernel, origin)
    assert np.allclose(_fft_correlate(values, kernel, origin), want, rtol=0, atol=1e-12)


def brute_span_correlate(values, kernel, origin, span):
    """sum_k kernel[k] values(c + k - origin) over the trailing kernel.ndim
    axes at the anchors c of span, zero outside the domain: one kernel
    offset at a time, on values zero-padded as far as the anchors read."""
    nd = kernel.ndim
    cells = values.shape[values.ndim - nd:]
    pad = [(max(0, o - lo), max(0, hi + s - 1 - o - n))
           for n, s, o, (lo, hi) in zip(cells, kernel.shape, origin, span)]
    padded = np.pad(values, [(0, 0)] * (values.ndim - nd) + pad)
    out = np.zeros(values.shape[:values.ndim - nd] + tuple(hi - lo for lo, hi in span))
    for k in np.ndindex(kernel.shape):
        at = tuple(slice(lo + i - o + b, hi + i - o + b)
                   for i, o, (lo, hi), (b, _a) in zip(k, origin, span, pad))
        out += kernel[k] * padded[(...,) + at]
    return out


@st.composite
def spanned_kernels(draw):
    """(values, kernel, origin, span): a real kernel in 1-3 D, often larger
    than the values, its origin anywhere in it, values with or without a
    batch axis, and per axis a span of anchors that may start before the
    values and end past them, beyond every anchor the kernel reaches."""
    values, kernel, origin = draw(real_kernels())
    if draw(st.booleans()):
        values = np.stack([values, draw(arrays(float, values.shape,
                                               elements=st.floats(-10, 10)))])
    span = []
    for n, s in zip(values.shape[values.ndim - kernel.ndim:], kernel.shape):
        lo = draw(st.integers(-s - 3, n + 2))
        span.append((lo, draw(st.integers(lo + 1, lo + n + s + 4))))
    return values, kernel, origin, span


@settings(max_examples=200, deadline=None)
@given(spanned_kernels())
def test_spanned_correlations_match_direct_summation(case):
    # the FFT correlation and the box sum at the anchors of a span, against
    # direct summation; the box sum also through a holder's table, twice
    # a span that starts before the correlation's first output, anchor
    # o + 1 - s, is refused by the FFT; its part from there on is correlated
    values, kernel, origin, span = case
    first = [o + 1 - s for s, o in zip(kernel.shape, origin)]
    fft_span = [(max(lo, f), max(hi, f + 1)) for (lo, hi), f in zip(span, first)]
    if fft_span != span:
        with pytest.raises(ValueError, match="before the first output"):
            _fft_correlate(values, kernel, origin, span=span)
    scale = 1.0 + np.abs(values).sum() * np.abs(kernel).max()
    want = brute_span_correlate(values, kernel, origin, fft_span)
    got = _fft_correlate(values, kernel, origin, span=fft_span)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-12 * scale)
    batch = values.shape[:values.ndim - kernel.ndim]
    # the box lo <= o <= hi is the all-ones kernel of origin -lo
    box = [(-o, s - 1 - o) for s, o in zip(kernel.shape, origin)]
    want = brute_span_correlate(values, np.ones(kernel.shape), origin, span)
    scale = 1.0 + np.abs(values).sum()
    fwd = _Forward()
    for forward in (None, fwd, fwd):
        got = _box_sum(values, [(0, 0)] * len(batch) + box, forward,
                       [(0, n) for n in batch] + span)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("case", ["1d", "2d-past-both-ends", "3d-kernel-larger", "batch"])
def test_spanned_correlation_cases(case):
    # the listed cases by name: 1-D, spans past both ends of the values, from
    # the first output on, a kernel larger than the values, a batch axis
    rng = np.random.default_rng(21)
    values, kernel, origin, span = {
        "1d": (rng.standard_normal(9), rng.standard_normal(4), (1,), [(-2, 8)]),
        "2d-past-both-ends": (rng.standard_normal((5, 6)), rng.standard_normal((3, 4)),
                              (1, 3), [(-1, 14), (0, 12)]),
        "3d-kernel-larger": (rng.standard_normal((3, 2, 4)), rng.standard_normal((7, 9, 5)),
                             (3, 0, 4), [(-3, 5), (-8, 2), (0, 8)]),
        "batch": (rng.standard_normal((2, 6, 5)), rng.standard_normal((3, 3)), (1, 2),
                  [(-1, 7), (1, 4)]),
    }[case]
    want = brute_span_correlate(values, kernel, origin, span)
    got = _fft_correlate(values, kernel, origin, span=span)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    batch = values.shape[:values.ndim - kernel.ndim]
    box = [(-o, s - 1 - o) for s, o in zip(kernel.shape, origin)]
    want = brute_span_correlate(values, np.ones(kernel.shape), origin, span)
    got = _box_sum(values, [(0, 0)] * len(batch) + box, _Forward(),
                   [(0, n) for n in batch] + span)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_a_span_before_the_first_output_is_refused():
    # anchor o + 1 - s is the first that a kernel cell reaches from the values
    values, kernel, origin = np.ones((5, 6)), np.ones((3, 4)), (1, 3)
    with pytest.raises(ValueError, match="before the first output"):
        _fft_correlate(values, kernel, origin, span=[(-2, 5), (0, 6)])
    got = _fft_correlate(values, kernel, origin, span=[(-1, 5), (0, 6)])
    assert np.allclose(got, brute_span_correlate(values, kernel, origin, [(-1, 5), (0, 6)]),
                       rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(real_kernels())
def test_no_span_keeps_the_dense_lengths_and_bits(case):
    # span None is the span of the values' own cells: n + max(o, s - 1 - o)
    # rounded up, and the same correlation bit for bit, from the same spectrum
    values, kernel, origin = case
    dense = tuple(_fast_len(n + max(o, s - 1 - o))
                  for n, s, o in zip(values.shape, kernel.shape, origin))
    own = [(0, n) for n in values.shape]
    assert _transform_lens(values.shape, kernel.shape, origin) == dense
    assert _transform_lens(values.shape, kernel.shape, origin, own) == dense
    fwd = _Forward()
    got = _fft_correlate(values, kernel, origin, fwd)
    assert fwd.key == dense
    assert np.array_equal(got, _fft_correlate(values, kernel, origin, span=own))


@pytest.mark.parametrize("batch", [(), (2,)])
def test_correlation_leaves_the_holders_spectrum_as_made(batch):
    # the product overwrites the call's own kernel spectrum (or, with more
    # than one batch row, each row's own product), never the holder's
    # spectrum: after every correlation the
    # kept spectrum still equals a fresh rfftn, and each result equals one
    # made without a holder
    rng = np.random.default_rng(13)
    values = rng.standard_normal(batch + (20, 15))
    axes = tuple(range(len(batch), values.ndim))
    fwd = _Forward()
    for size in (3, 4, 5, 9):
        kernel = rng.standard_normal((size, size))
        origin = (size // 2, 0)
        got = _fft_correlate(values, kernel, origin, fwd)
        assert np.array_equal(fwd.array, np.fft.rfftn(values, s=fwd.key, axes=axes))
        assert np.array_equal(got, _fft_correlate(values, kernel, origin))
        want = [brute_correlate(v, kernel, origin) for v in values.reshape((-1, 20, 15))]
        assert np.allclose(got, np.reshape(want, got.shape), rtol=0, atol=1e-11)


@pytest.mark.parametrize("rho, box", [(0.1, True), (0.25, False), (0.3, True), (0.7, False)])
def test_correlate_x_stencil_on_t_x_array_is_per_slice(rho, box):
    # leading axes are a batch: a ball_x stencil on (t, x) sums each t slice
    # alone, on the box path and on the FFT path
    g = make_grid(3, 1.0, (6, 12, 10))
    member = member_offsets(g, make_structure(3, (2, 1, 1)), rho, "ball_x")
    assert (member.spans is not None) == box
    values = np.random.default_rng(11).standard_normal(g.cells)
    want = np.stack([brute_correlate(v, member.mask, member.origin) for v in values])
    assert np.allclose(_correlate(values, member), want, rtol=0, atol=1e-12)


def _oracle_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dim, cells", [(1, 40), (2, 20), (2, (12, 18)), (3, 10)])
def test_apply_kernel_linear_matches_fftconvolve(dim, cells):
    g = make_grid(dim, 1.0, cells)
    f = Field(g, np.random.default_rng(dim).standard_normal(g.cells))
    full_slice = tuple(slice(n - 1, 2 * n - 1) for n in g.cells)
    for spec, ker in ((KernelSpec("riesz", alpha=0.5), riesz_kernel_array(g, 0.5)),
                      (KernelSpec("elliptic_resolvent", lam=2.0),
                       elliptic_resolvent_kernel(g, 2.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the random source reaches the edge
            got = apply_kernel(f, spec).values
        _oracle_close(got, fftconvolve(f.values, ker, mode="full")[full_slice] * g.cell_volume)


@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("cells, lens", [
    ((12,), (16,)), ((12,), (25,)), ((12,), (9,)),
    ((6, 10), (8, 15)), ((6, 10), (9, 7)), ((6, 10), (4, 12)),
    ((5, 6, 7), (8, 9, 10)), ((5, 6, 7), (15, 7, 11)), ((5, 6, 7), (3, 10, 5)),
])
def test_one_buffer_spectrum_is_numpys_rfftn(cells, lens, batch):
    # _rfftn equals numpy.fft.rfftn bit for bit at 5-smooth and odd lengths,
    # and at lengths shorter than an axis, where numpy's n= cuts the values;
    # a kernel given as _Slabs gives the same spectrum
    values = np.random.default_rng(len(cells) + sum(lens)).standard_normal(batch + cells)
    want = np.fft.rfftn(values, s=lens, axes=tuple(range(len(batch), values.ndim)))
    assert np.array_equal(_rfftn(values, lens), want)
    if not batch:
        assert np.array_equal(_rfftn(_Slabs(values.shape, values.__getitem__), lens), want)


@pytest.mark.parametrize("dim, cells", [(1, 30), (2, (12, 18)), (3, (10, 14, 8))])
def test_apply_kernel_from_slabs_is_the_dense_kernels_correlation(dim, cells):
    # apply_kernel builds its radial kernel spectra slab by slab; they equal
    # the correlation with the dense kernel arrays bit for bit
    g = make_grid(dim, 1.0, cells)
    f = Field(g, np.random.default_rng(dim).standard_normal(g.cells))
    kernels = [(KernelSpec("riesz", alpha=0.5), riesz_kernel_array(g, 0.5)),
               (KernelSpec("elliptic_resolvent", lam=2.0), elliptic_resolvent_kernel(g, 2.0))]
    if dim == 3:
        kernels.append((KernelSpec("newtonian"), newtonian_kernel_array(g)))
    for spec, ker in kernels:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the random source reaches the edge
            got = apply_kernel(f, spec).values
        assert np.array_equal(got, _linear_convolve(f.values, ker) * g.cell_volume), spec.kind


def test_fft_correlate_of_one_field_holds_two_spectra(traced_peak):
    """The tracemalloc peak of one 48^3 field correlated with a 33^3 kernel
    at 64^3 lengths, with no holder.  One spectrum is 64 x 64 x 33 complex,
    2.06 MiB.  numpy.fft.rfftn's forward spectrum, a kernel spectrum made
    one array per pass and the forward spectrum kept to the end peaked at
    5.79 MiB (2.81 spectra); one buffer per spectrum, with the forward
    spectrum dropped after the product, peaks at 4.25 MiB (2.06)."""
    values = np.random.default_rng(0).standard_normal((1, 48, 48, 48))
    kernel, origin = np.ones((33, 33, 33)), (16, 16, 16)
    assert _transform_lens(values.shape[1:], kernel.shape, origin) == (64, 64, 64)
    peak, _ = traced_peak(lambda: _fft_correlate(values, kernel, origin))
    assert peak <= 2.2 * 16 * 64 * 64 * 33


def test_apply_kernel_never_holds_the_dense_kernel(traced_peak):
    """The tracemalloc peak of apply_kernel's Riesz potential of a 40^3
    field (80^3 transforms; one spectrum is 80 x 80 x 41 complex, 4.0 MiB).
    With the dense 79^3 kernel, its radius array and numpy.fft.rfftn it
    peaked at 13.78 MiB (3.44 spectra); with the kernel built slab by slab
    into its spectrum, at 8.02 MiB (2.0)."""
    g = make_grid(3, 1.5, 40)
    f = Field(g, np.random.default_rng(1).standard_normal(g.cells))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the random source reaches the edge
        peak, _ = traced_peak(lambda: apply_kernel(f, KernelSpec("riesz", alpha=1.0)))
    assert peak <= 2.2 * 16 * 80 * 80 * 41


@pytest.mark.parametrize("dim, cells", [(1, 40), (2, (12, 18)), (3, 10)])
def test_apply_kernel_periodic_matches_the_folded_kernel(dim, cells):
    # oracle: fold the kernel's offsets -(n - 1) .. n - 1 onto one period,
    # then convolve circularly by complex FFTs
    g = make_grid(dim, 1.0, cells)
    f = Field(g, np.random.default_rng(dim).standard_normal(g.cells))
    for spec, ker in ((KernelSpec("riesz", alpha=0.5, policy="periodic"),
                       riesz_kernel_array(g, 0.5)),
                      (KernelSpec("elliptic_resolvent", lam=2.0, policy="periodic"),
                       elliptic_resolvent_kernel(g, 2.0))):
        folded = np.zeros(g.cells)
        mesh = np.meshgrid(*[np.arange(-(n - 1), n) for n in g.cells], indexing="ij")
        np.add.at(folded, tuple(m % n for m, n in zip(mesh, g.cells)), ker)
        want = np.fft.ifftn(np.fft.fftn(f.values) * np.fft.fftn(folded)).real
        _oracle_close(apply_kernel(f, spec).values, want * g.cell_volume)


@pytest.mark.parametrize("cells", [(20, 16), (12, 10, 8)])
def test_apply_parabolic_matches_fftconvolve(cells):
    g = make_grid(len(cells), 1.0, cells)
    f = Field(g, np.random.default_rng(5).standard_normal(g.cells))
    ker = parabolic_kernel_array(g, 1.0, 4.0)
    full = fftconvolve(f.values, ker[::-1], mode="full")
    want = full[tuple(slice(n - 1, 2 * n - 1) for n in g.cells)] * g.cell_volume
    _oracle_close(apply_parabolic(f, 1.0, 4.0).values, want)


def brute_count(stencil, origin, cells):
    """Number of stencil offsets that stay inside the grid, anchor by anchor."""
    offs = np.argwhere(stencil) - np.asarray(origin)
    out = np.zeros(cells)
    for c in np.ndindex(*cells):
        idx = np.asarray(c) + offs
        out[c] = np.all((idx >= 0) & (idx < np.asarray(cells)), axis=1).sum()
    return out


@st.composite
def member_stencils(draw):
    """(member, cells): a table member on a small grid, in 1-3 D, any
    anisotropy, radii from below one cell to well past the grid."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("ball", "ellipsoid", "cylinder", "cube", "box")
                                 + (("ball_x",) if dim > 1 else ())))
    ks = tuple(draw(st.lists(st.integers(1, 2), min_size=dim, max_size=dim)))
    cells = tuple(draw(st.lists(st.sampled_from((2, 4, 6, 8)), min_size=dim, max_size=dim)))
    half = tuple(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    rho = draw(st.floats(0.05, 1.5))
    member = member_offsets(make_grid(dim, half, cells), make_structure(dim, ks), rho, shape)
    return member, cells[1:] if shape == "ball_x" else cells


@SETTINGS
@given(member_stencils())
def test_stencil_count_is_the_exact_uniform_measure(case):
    member, cells = case
    count = _stencil_count(member.mask, member.origin, cells)
    assert np.array_equal(count, brute_count(member.mask, member.origin, cells))
    assert np.allclose(count, _correlate(np.ones(cells), member), rtol=0, atol=1e-9)


def test_stencil_table_is_read_only_and_keyed_by_value():
    s = make_structure(2, (1, 1))
    a = member_offsets(make_grid(2, 1.0, 32), s, 0.3, "ball")
    assert not a.mask.flags.writeable
    with pytest.raises(ValueError):
        a.mask[0, 0] = True
    # the value a record is keyed by is its cell set
    assert a.key == (a.mask.shape, np.packbits(a.mask).tobytes(), a.origin)
    # two distinct but equal grids share one entry ...
    b = member_offsets(make_grid(2, 1.0, 32), s, 0.3, "ball")
    assert b is a and b.origin == a.origin
    # ... another radius with the same cells is another entry but an equal
    # record ...
    same = member_offsets(make_grid(2, 1.0, 32), s, 0.31, "ball")
    assert same is not a and same == a and hash(same) == hash(a)
    assert np.array_equal(same.mask, a.mask) and same.origin == a.origin
    # ... while other cells, from another radius or cell width, are another
    # record
    for other in (member_offsets(make_grid(2, 1.0, 32), s, 0.33, "ball"),
                  member_offsets(make_grid(2, 1.0, 64), s, 0.3, "ball")):
        assert other is not a and other != a and other.key != a.key


def test_weighted_measure_matches_brute_force():
    # M_w's density w takes the correlated measure, not the cell count; the
    # Morrey sup on dx takes the cell count
    g = make_grid(2, 1.0, 16)
    rng = np.random.default_rng(3)
    dens = 0.5 + rng.random(g.cells)
    s = make_structure(2, (1, 1))
    f = Field(g, rng.standard_normal(g.cells))
    radii = (0.2, 0.45)
    p, beta = 2.0, 0.5
    want = 0.0
    for rho in radii:
        member = member_offsets(g, s, rho, "ball")
        stencil, origin = member.mask, member.origin
        mu = brute_correlate(dens, stencil, origin)
        avg, den = _member_means(np.abs(f.values) * dens, dens, member)
        assert np.allclose(den, mu, rtol=1e-12, atol=0)
        assert np.allclose(avg, brute_correlate(np.abs(f.values) * dens, stencil, origin) / mu,
                           rtol=1e-10, atol=0)
        count = brute_correlate(np.ones(g.cells), stencil, origin)
        slashed = brute_correlate(np.abs(f.values) ** p, stencil, origin) / count
        want = max(want, rho ** beta * slashed.max() ** (1.0 / p))
    got = evaluate_norm(f, NormSpec("Epbr", p=p, beta=beta, r=1.0), s, radii=radii)
    assert got == pytest.approx(want, rel=1e-10)


# The pad-and-clip summed-area step that the kernels replaced: the reference
# their table-and-clamp form must reproduce bit for bit.
def pad_clip_prefix_diff(arr, ax, lo, hi):
    pad = [(0, 0)] * arr.ndim
    pad[ax] = (1, 0)
    c = np.pad(np.cumsum(arr, axis=ax), pad)
    return np.take(c, hi, axis=ax) - np.take(c, lo, axis=ax)


def pad_clip_box_sum(values, bounds):
    out = values
    for ax, (lo, hi) in enumerate(bounds):
        if lo == hi == 0:
            continue
        n = out.shape[ax]
        i = np.arange(n)
        out = pad_clip_prefix_diff(out, ax, np.clip(i + lo, 0, n), np.clip(i + hi + 1, 0, n))
    return out


def pad_clip_stencil_count(stencil, origin, cells):
    out = stencil.astype(float)
    for ax, (o, n) in enumerate(zip(origin, cells)):
        s, c = stencil.shape[ax], np.arange(n)
        out = pad_clip_prefix_diff(out, ax, np.clip(o - c, 0, s), np.clip(o - c + n, 0, s))
    return out


VALUE_DTYPES = (np.float64, np.float32, np.int8, np.int64, np.uint8, np.bool_)


@st.composite
def box_sum_cases(draw):
    """(values, bounds) in 1-3 D: random floats (or another dtype), bounds on
    either side of the anchor, straddling it, wider than the grid, skipped
    axes, or the axis-0 window of _window_sums."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 8), min_size=dim, max_size=dim)))
    dtype = np.dtype(draw(st.sampled_from(VALUE_DTYPES)))
    floats = st.floats(-1e6, 1e6, width=dtype.itemsize * 8) if dtype.kind == "f" else None
    values = draw(arrays(dtype, cells, elements=floats))
    if draw(st.booleans()):
        bounds = [(0, draw(st.integers(0, cells[0] - 1)))] + [(0, 0)] * (dim - 1)
    else:
        bounds = []
        for _ in range(dim):
            lo = draw(st.integers(-12, 12))
            bounds.append((lo, draw(st.integers(lo, lo + 20))))
    return values, bounds


@settings(max_examples=300, deadline=None)
@given(box_sum_cases())
def test_box_sum_is_bit_identical_to_pad_and_clip(case):
    values, bounds = case
    got, want = _box_sum(values, bounds), pad_clip_box_sum(values, bounds)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_box_sums_of_one_field_read_one_holder_table():
    # box members of one field read the summed-area table its _Forward
    # holder keeps: bit for bit the sums of a table made per call, over
    # ascending radii, batch axes, windows wider than the grid or past its
    # ends, and a spectrum made in between, which drops the table
    rng = np.random.default_rng(12)
    values = rng.standard_normal((3, 17, 12)) * 10.0 ** rng.integers(-3, 4, size=(3, 17, 12))
    cases = [[(0, 0), (0, 0), (-1, 1)]]  # first summed axis 2
    cases += [[(0, 0), (-h, h), (-(h // 2), h)] for h in range(1, 20)]  # axis 1 from here
    cases += [[(0, 0), (0, 25), (0, 0)], [(0, 0), (-25, -18), (1, 3)], [(0, 0), (18, 30), (0, 0)]]
    fwd, tables = _Forward(), []
    for k, bounds in enumerate(cases):
        if k == 10:
            fwd.rfftn(values, (18, 16))
            assert fwd.key == (18, 16)
        got = _box_sum(values, bounds, fwd)
        want = _box_sum(values, bounds)
        assert got.dtype == want.dtype and np.array_equal(got, want), bounds
        ax = next(i for i, b in enumerate(bounds) if b != (0, 0))
        assert fwd.key == ("table", ax)
        tables.append(fwd.array)
    # one table for axis 2, one for axis 1, one more after the spectrum
    assert len({id(t) for t in tables}) == 3


@st.composite
def any_stencils(draw):
    """(member, cells): the record of a random boolean stencil in 1-3 D
    with its origin anywhere in it (a cylinder's origin is its first t row),
    on grids smaller and larger than the stencil."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    stencil = draw(arrays(bool, shape))
    origin = tuple(draw(st.integers(0, s - 1)) for s in shape)
    cells = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    return _Member(stencil, origin), cells


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_stencils(), member_stencils()))
def test_stencil_count_is_bit_identical_to_pad_and_clip(case):
    member, cells = case
    assert np.array_equal(_stencil_count(member.mask, member.origin, cells),
                          pad_clip_stencil_count(member.mask, member.origin, cells))


@settings(max_examples=200, deadline=None)
@given(member_stencils())
def test_table_counts_are_bit_identical_and_read_only(case):
    # a count from the table is the pad-and-clip count, stored once, read-only
    member, cells = case
    count = maximal._COUNTS.get(member, cells)
    assert np.array_equal(count, pad_clip_stencil_count(member.mask, member.origin, cells))
    assert not count.flags.writeable
    assert maximal._COUNTS.get(member, cells) is count


def test_count_table_never_exceeds_its_byte_bound():
    # a private table with small bounds; the stencils stay alive throughout
    table = maximal._CountTable(entry_bytes=8 * 64, total_bytes=8 * 200)
    g, s = make_grid(1, 1.0, 48), make_structure(1, (1,))
    members = [member_offsets(g, s, rho, "ball") for rho in np.linspace(0.1, 0.9, 12)]
    for member in members:
        for n in (16, 24, 40, 80):  # 80 cells is past the entry bound
            count = table.get(member, (n,))
            assert np.array_equal(count, pad_clip_stencil_count(member.mask, member.origin, (n,)))
            assert table.nbytes == sum(c.nbytes for c in table.counts.values())
            assert table.nbytes <= table.total_bytes
            assert all(c.nbytes <= table.entry_bytes for c in table.counts.values())
    assert table.counts  # the table did store counts
    # eviction takes the least recently used, so the count asked for last stays
    assert table.get(members[-1], (40,)) is table.get(members[-1], (40,))


def test_equal_grids_give_one_record_and_one_stored_count():
    s = make_structure(2, (1, 1))
    a = member_offsets(make_grid(2, 1.0, 32), s, 0.45, "ball")
    b = member_offsets(make_grid(2, 1.0, 32), s, 0.45, "ball")
    assert b is a
    count = maximal._COUNTS.get(a, (20, 24))
    assert maximal._COUNTS.get(b, (20, 24)) is count
    assert sum(key[0] == a.key for key in maximal._COUNTS.counts) == 1
    # another radius or cell width is another record, with its own count
    for other in (member_offsets(make_grid(2, 1.0, 32), s, 0.5, "ball"),
                  member_offsets(make_grid(2, 1.0, 40), s, 0.45, "ball")):
        assert other != a
        assert maximal._COUNTS.get(other, (20, 24)) is not count


def test_a_stored_count_survives_the_member_table_eviction():
    # the count is keyed by the record's cells, not by the record: a record
    # rebuilt after the eviction, and one of another radius with the same
    # cells, read the stored count
    s = make_structure(2, (1, 1))
    member = member_offsets(make_grid(2, 1.0, 32), s, 0.35, "cylinder")
    count = maximal._COUNTS.get(member, (16, 18))
    maximal._member.cache_clear()
    rebuilt = member_offsets(make_grid(2, 1.0, 32), s, 0.35, "cylinder")
    assert rebuilt is not member and rebuilt == member
    assert rebuilt.key == (member.mask.shape, np.packbits(member.mask).tobytes(), member.origin)
    assert maximal._COUNTS.get(rebuilt, (16, 18)) is count
    nearby = member_offsets(make_grid(2, 1.0, 32), s, 0.34, "cylinder")
    assert nearby is not rebuilt and nearby == rebuilt
    assert maximal._COUNTS.get(nearby, (16, 18)) is count


def test_a_bare_stencil_record_shares_the_entries_of_an_equal_table_record():
    # a record made from a bare stencil is keyed by its cell set, as a table
    # record is: it equals the table record of the same cells and reads the
    # count and the gather offsets stored for it
    table = member_offsets(make_grid(2, 1.0, 32), make_structure(2, (1, 1)), 0.3, "ball")
    bare = _Member(table.mask.copy(), table.origin)
    assert bare is not table and bare == table and hash(bare) == hash(table)
    cells = (20, 24)
    count = maximal._COUNTS.get(table, cells)
    assert maximal._COUNTS.get(bare, cells) is count
    padded = tuple(n + s - 1 for n, s in zip(cells, table.mask.shape))
    assert maximal._flat_offsets(bare, padded) is maximal._flat_offsets(table, padded)


@st.composite
def counts_past_the_stencil(draw):
    """(member, cells): the record of a random boolean stencil in 1-3 D
    that holds its origin, on a grid shorter than, as long as or longer than
    the stencil on each axis."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=dim, max_size=dim)))
    stencil = draw(arrays(bool, shape))
    origin = tuple(draw(st.integers(0, s - 1)) for s in shape)
    stencil[origin] = True
    cells = tuple(draw(st.sampled_from([n for n in (s - 2, s - 1, s, s + 1, s + 5) if n > 0]))
                  for s in shape)
    return _Member(stencil, origin), cells


@settings(max_examples=300, deadline=None)
@given(counts_past_the_stencil())
def test_compressed_counts_expand_to_the_full_count(case):
    # a table that stores every count compressed reads the full count back,
    # at the first read and from storage
    member, cells = case
    table = maximal._CountTable(entry_bytes=0, total_bytes=2 ** 20)
    want = _stencil_count(member.mask, member.origin, cells)
    first = table.get(member, cells)
    assert np.array_equal(first, want)
    (stored,) = table.counts.values()
    assert stored.shape == tuple(min(n, s) for n, s in zip(cells, member.mask.shape))
    assert np.array_equal(table.get(member, cells), want)


def test_a_count_past_the_entry_bound_is_stored_compressed(monkeypatch):
    # a 40^3 count (512 KB as floats) is counted once, on the grid the
    # stencil spans, and a second read makes no count
    member = member_offsets(make_grid(3, 1.0, 40), make_structure(3), 0.3, "ball")
    cells = (40, 40, 40)
    want = _stencil_count(member.mask, member.origin, cells)
    assert want.nbytes > maximal._COUNTS.entry_bytes
    maximal._COUNTS.get(member, cells)
    calls = []

    def counting(*args):
        calls.append(args[2])
        return _stencil_count(*args)

    monkeypatch.setattr(maximal, "_stencil_count", counting)
    assert np.array_equal(maximal._COUNTS.get(member, cells), want)
    assert calls == []
    assert maximal._COUNTS.counts[(member.key, cells)].shape == member.mask.shape


def test_ap_boxes_are_table_records_whose_spans_are_the_box(monkeypatch):
    from morreylab import weights

    g, s = make_grid(2, (1.0, 1.5), (16, 20)), make_structure(2, (1, 1))
    box = member_offsets(g, s, 0.5, "box")
    assert member_offsets(g, s, 0.5, "box") is box and box.key is not None
    # half widths max(1, ceil(rho^k / (2 h))): 0.5 / 0.25 = 2 and 0.5 / 0.3 -> 2
    assert box.origin == (2, 2) and box.mask.shape == (5, 5)
    assert not box.mask.flags.writeable and box.mask.all()
    assert box.spans == ((0, 4), (0, 4))
    # every cube mean of weights reads a table box, one mean of w and one of
    # its dual per distinct box of the radius family
    seen = []

    def spying(weighted, dens, member, forward=None):
        seen.append(member)
        return _member_means(weighted, dens, member, forward)

    monkeypatch.setattr(weights, "_member_means", spying)
    w = weights.power_weight(g, 0.5)
    weights.ap_constant(w, 2.0, s)
    radii = BallFamily.for_structure(s, g, shape="cube", rho_max=2.0 * min(g.half_extent)).radii
    boxes = [member_offsets(g, s, rho, "box") for rho in radii]
    distinct = [b for i, b in enumerate(boxes) if i == 0 or b != boxes[i - 1]]
    assert len(distinct) < len(boxes)  # the family repeats a box
    assert seen == [b for b in distinct for _ in range(2)]
    for member in seen:
        assert any(member is b for b in boxes)
        assert member.key == (member.mask.shape, np.packbits(member.mask).tobytes(), member.origin)
        assert member.spans == tuple((0, n - 1) for n in member.mask.shape)


@settings(max_examples=100, deadline=None)
@given(member_stencils(), st.integers(0, 2 ** 32 - 1))
def test_direct_division_is_bit_identical_to_the_where_path(case, seed):
    # a member stencil holds its origin, so the uniform count is >= 1 and
    # num / den needs no np.where guard
    member, cells = case
    assert member.mask[member.origin]
    values = np.random.default_rng(seed).standard_normal(cells)
    means, den = _member_means(values, None, member)
    num = _correlate(values, member)
    count = _stencil_count(member.mask, member.origin, cells)
    assert np.array_equal(den, count) and den.min() >= 1
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.array_equal(means, np.where(count > 0, num / count, 0.0))


@st.composite
def oscillation_cases(draw):
    """(values, stencil, origin, strides) with the origin in the stencil
    and a lattice stride of 1-3 per axis; an axis of n = stride * m + 1 cells
    puts both its first and its last cell on the lattice."""
    dim = draw(st.integers(1, 3))
    strides = tuple(draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim)))
    cells = tuple(draw(st.one_of(st.integers(1, 7), st.integers(0, 3).map(lambda m, s=s: s * m + 1)))
                  for s in strides)
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    stencil = draw(arrays(bool, shape))
    origin = tuple(draw(st.integers(0, s - 1)) for s in shape)
    stencil[origin] = True
    values = draw(arrays(float, cells, elements=st.floats(-10, 10)))
    return values, stencil, origin, strides


@SETTINGS
@given(oscillation_cases())
def test_mean_oscillation_matches_anchor_loop(case):
    assert np.allclose(mean_oscillation(*case), loop_mean_oscillation(*case),
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("offset", [-1e3, 1e3])
@pytest.mark.parametrize("cells, shape, strides", [((9, 7), (5, 4), (1, 2)),
                                                   ((6, 5, 7), (3, 4, 3), (2, 1, 3))])
def test_mean_oscillation_of_a_large_offset_on_clipped_members(offset, cells, shape, strides):
    # C + noise on clipped members, C of either sign: the member means take
    # both signs' branch, and every padded zero must add nothing to the sum
    # of maxima or minima
    rng = np.random.default_rng(len(cells))
    values = offset + rng.normal(size=cells)
    stencil = rng.random(shape) < 0.7
    origin = tuple(s // 2 for s in shape)
    stencil[origin] = True
    got = mean_oscillation(values, stencil, origin, strides)
    want = loop_mean_oscillation(values, stencil, origin, strides)
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("strides", [(1, 1), (2, 3)])
def test_mean_oscillation_of_a_smooth_field_with_spikes_of_both_signs(strides):
    # +-1e8 spikes on a smooth O(1) field whose members oscillate by ~1e-2:
    # members away from the spikes must keep their digits, so no rounding
    # may scale with the range of the whole field
    y, x = np.mgrid[0:40, 0:36].astype(float)
    values = np.sin(0.05 * x) + np.cos(0.04 * y)
    values[10, 8], values[28, 25] = 1e8, -1e8
    yy, xx = np.mgrid[-3:4, -3:4]
    stencil = yy ** 2 + xx ** 2 <= 9
    got = mean_oscillation(values, stencil, (3, 3), strides)
    want = loop_mean_oscillation(values, stencil, (3, 3), strides)
    assert want.min() < 1e-2
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_mean_oscillation_keeps_non_finite_values_in_their_members():
    # an inf or NaN value spoils only the members that hold it
    rng = np.random.default_rng(9)
    values = 3.0 + rng.normal(size=(12, 10))
    values[2, 3], values[9, 7] = np.inf, np.nan
    stencil = np.ones((3, 3), dtype=bool)
    held = np.zeros(values.shape, dtype=bool)
    held[1:4, 2:5] = held[8:11, 6:9] = True
    clean = np.where(np.isfinite(values), values, 0.0)
    with np.errstate(invalid="ignore"):
        got = mean_oscillation(values, stencil, (1, 1), (1, 1))
    want = mean_oscillation(clean, stencil, (1, 1), (1, 1))
    assert np.isnan(got[held]).all()
    assert np.allclose(got[~held], want[~held], rtol=1e-12, atol=1e-12)


def test_mean_oscillation_blocks_do_not_change_the_result(monkeypatch):
    # a 3-D lattice cut into runs along its last axis gives the same numbers
    rng = np.random.default_rng(3)
    values = rng.normal(size=(7, 6, 9))
    stencil = rng.random((3, 4, 3)) < 0.6
    stencil[1, 2, 0] = True
    whole = mean_oscillation(values, stencil, (1, 2, 0), (2, 1, 2))
    monkeypatch.setattr(maximal, "_GATHER_BLOCK", 5)
    cut = mean_oscillation(values, stencil, (1, 2, 0), (2, 1, 2))
    assert np.allclose(whole, cut, rtol=1e-13, atol=1e-13)


@SETTINGS
@given(oscillation_cases(), st.floats(-5, 5), st.floats(-100, 100))
def test_mean_oscillation_affine_invariance(case, lam, c):
    # (lam g + c)^# = |lam| g^#
    values, stencil, origin, strides = case
    base = mean_oscillation(values, stencil, origin, strides)
    moved = mean_oscillation(lam * values + c, stencil, origin, strides)
    tol = 1e-12 * (abs(lam) * np.abs(values).max() + abs(c) + 1.0)
    assert np.allclose(moved, abs(lam) * base, rtol=1e-9, atol=tol)



@st.composite
def clipped_oscillation_cases(draw):
    """(values, stencil, origin, strides) in 1-3 D with strides of 1 or 3, and
    stencils that may be wider than the grid, so that most members are
    clipped.  Values of either sign about a shift near 0 give clipped
    members whose means take both signs in one block; at times one value is
    inf, -inf or NaN."""
    dim = draw(st.integers(1, 3))
    strides = tuple(draw(st.sampled_from((1, 3))) for _ in range(dim))
    cells = tuple(draw(st.lists(st.integers(1, 7 if dim < 3 else 5), min_size=dim,
                                max_size=dim)))
    shape = tuple(draw(st.lists(st.integers(1, 9 if dim < 3 else 6), min_size=dim,
                                max_size=dim)))
    stencil = draw(arrays(bool, shape))
    origin = tuple(draw(st.integers(0, s - 1)) for s in shape)
    stencil[origin] = True
    values = draw(arrays(float, cells, elements=st.floats(-10, 10))) + draw(st.floats(-2, 2))
    if draw(st.booleans()):
        bad = draw(st.sampled_from((np.inf, -np.inf, np.nan)))
        values.flat[draw(st.integers(0, values.size - 1))] = bad
    return values, stencil, origin, strides


@settings(max_examples=200, deadline=None)
@given(clipped_oscillation_cases())
def test_one_pass_oscillation_matches_anchor_loop_on_clipped_members(case):
    # one max with the mean per gathered value, the padded zeros' max(0, m)
    # taken off each row: members clipped on any side, means of either sign,
    # and a non-finite value spoiling (NaN) exactly the members that hold it.
    # The floor is the rounding of a row's sum of K values of size |g|, the
    # whole residue of a member whose values are all equal
    values, stencil = case[0], case[1]
    with np.errstate(invalid="ignore"):
        got = mean_oscillation(*case)
        want = loop_mean_oscillation(*case)
    finite = values[np.isfinite(values)]
    scale = 1.0 + (np.abs(finite).max() if finite.size else 0.0)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14 * stencil.sum() * scale,
                       equal_nan=True)


def test_records_of_one_stencil_shape_get_their_own_flat_offsets():
    # the gather's offsets are kept per record key, the cell set: records of
    # one stencil shape and origin and other cells each gather their own
    rng = np.random.default_rng(12)
    values = rng.normal(size=(9, 8))
    masks = [rng.random((3, 4)) < 0.5 for _ in range(3)]
    for m in masks:
        m[1, 2] = True
    records = [_Member(m, (1, 2)) for m in masks]
    assert len(set(records)) == 3
    for record in records:
        want = np.ravel_multi_index(np.nonzero(record.mask), (11, 11))
        assert np.array_equal(maximal._flat_offsets(record, (11, 11)), want)
        assert np.allclose(_mean_oscillation(values, record, (1, 2)),
                           loop_mean_oscillation(values, record.mask, (1, 2), (1, 2)),
                           rtol=1e-12, atol=1e-12)

DENSITIES = (1.0, 2.0, 4.0, 8.0, 16.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2 ** 32 - 1), st.floats(1.0, 6.0))
def test_family_sups_never_decrease_as_density_rises(dim, seed, spike):
    n = 64 if dim == 1 else 24
    g = make_grid(dim, 1.0, n)
    s = make_structure(dim, (1,) * dim)
    f = Field(g, np.random.default_rng(seed).random(g.cells) ** spike)
    for op in (classical_maximal, classical_sharp):
        sups = [op(f, s, family=BallFamily.for_structure(s, g, density=d)).values.max()
                for d in DENSITIES]
        assert all(b >= a - 1e-12 for a, b in zip(sups, sups[1:])), (op.__name__, sups)


def brute_max_filter(values, footprint, origin):
    """max of values(c + k - origin) over the cells k of footprint, one
    offset at a time, -inf where no offset stays inside the domain."""
    out = np.full(values.shape, -np.inf)
    cells = np.indices(values.shape)
    lim = np.asarray(values.shape).reshape((-1,) + (1,) * values.ndim)
    for k in np.argwhere(footprint):
        idx = cells + (k - np.asarray(origin)).reshape(lim.shape)
        ok = np.all((idx >= 0) & (idx < lim), axis=0)
        out[ok] = np.maximum(out[ok], values[tuple(idx[:, ok])])
    return out


@st.composite
def max_filter_cases(draw):
    """(values, footprint): 1-3 D grids and random boolean footprints, whose
    lines along the last axis hold no run, one run or several."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    shape = tuple(draw(st.lists(st.integers(1, 5 if dim < 3 else 4), min_size=dim,
                                max_size=dim)))
    footprint = draw(arrays(np.bool_, shape))
    values = draw(arrays(np.float64, cells, elements=st.floats(-1e3, 1e3)))
    return values, footprint


@SETTINGS
@given(max_filter_cases())
def test_max_filter_matches_brute_force_at_every_origin(case):
    values, footprint = case
    for origin in np.ndindex(footprint.shape):
        assert np.array_equal(_max_filter(values, footprint, origin, _footprint_runs(footprint)),
                              brute_max_filter(values, footprint, origin))


def test_max_filter_lines_with_several_runs_or_none():
    rng = np.random.default_rng(5)
    footprint = np.array([[1, 0, 1, 1, 0, 1, 1, 1],
                          [0, 0, 0, 0, 0, 0, 0, 0],
                          [1, 1, 1, 1, 1, 1, 1, 1],
                          [0, 1, 0, 0, 0, 0, 1, 0]], dtype=bool)
    values = rng.normal(size=(7, 11))
    for origin in [(0, 0), (3, 7), (1, 4), (2, 2)]:
        out = _max_filter(values, footprint, origin, _footprint_runs(footprint))
        assert np.array_equal(out, brute_max_filter(values, footprint, origin))
    # every offset of a footprint far to one side leaves the domain
    far = np.zeros((1, 15), dtype=bool)
    far[0, -2:] = True
    out = _max_filter(values, far, (0, 0), _footprint_runs(far))
    assert np.isneginf(out[:, -2:]).all() and np.isfinite(out[:, :-14]).all()



def test_max_filter_windows_are_kept_per_grid_shape():
    # one footprint over two grid shapes, called in turn: each call reads the
    # windows of its own grid shape
    rng = np.random.default_rng(13)
    footprint = rng.random((4, 5)) < 0.6
    footprint[0, 0] = True
    runs = _footprint_runs(footprint)
    for _ in range(2):
        for cells in ((6, 10), (10, 3)):
            values = rng.normal(size=cells)
            assert np.array_equal(_max_filter(values, footprint, (1, 3), runs),
                                  brute_max_filter(values, footprint, (1, 3)))

def test_scatter_placement_is_grey_dilations():
    # the max filter at the centre (s - 1) // 2 of its footprint is
    # scipy.ndimage.grey_dilation with the reflected footprint, bit for bit
    from scipy.ndimage import grey_dilation

    rng = np.random.default_rng(8)
    g = make_grid(2, 1.0, 20)
    s = make_structure(2, (2, 1))
    values = rng.normal(size=g.cells)
    for shape in ("cylinder", "ball", "cube"):
        for rho in (0.15, 0.3, 0.5):
            stencil = member_offsets(g, s, rho, shape).mask
            want = grey_dilation(values, footprint=np.flip(stencil), mode="constant",
                                 cval=-np.inf)
            centre = tuple((n - 1) // 2 for n in stencil.shape)
            assert np.array_equal(_max_filter(values, stencil, centre, _footprint_runs(stencil)),
                                  want)


def brute_scatter(lattice, grid, structure, rho, shape, stride):
    """max of lattice[j] over the anchors stride * j whose member holds the
    cell, one anchor at a time, -inf where no member holds it."""
    member = member_offsets(grid, structure, rho, shape)
    stencil, origin = member.mask, member.origin
    offs = np.argwhere(stencil) - np.asarray(origin)
    cells = np.asarray(grid.cells)
    out = np.full(grid.cells, -np.inf)
    for j in np.ndindex(lattice.shape):
        idx = stride * np.asarray(j) + offs
        held = tuple(idx[np.all((idx >= 0) & (idx < cells), axis=1)].T)
        out[held] = np.maximum(out[held], lattice[j])
    return out


@pytest.mark.parametrize("ks, shape", [((2, 1), "cylinder"), ((2, 1, 1), "cylinder"),
                                       ((1, 1), "ball"), ((1, 1, 1), "ball"),
                                       ((2, 1), "ellipsoid"), ((1, 2, 1), "ellipsoid"),
                                       ((1, 1), "cube"), ((2, 1, 1), "cube")])
def test_scatter_at_stride_1_is_the_member_scatter(ks, shape):
    dim = len(ks)
    g = make_grid(dim, 1.0, 20 if dim == 2 else 10)
    s = make_structure(dim, ks)
    values = np.random.default_rng(dim).normal(size=g.cells)
    for rho in (0.15, 0.3, 0.55):
        want = brute_scatter(values, g, s, rho, shape, 1)
        got = maximal._scatter_max(values, member_offsets(g, s, rho, shape), 1,
                                   np.full(g.cells, -np.inf))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("density", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("ks, cells", [((1, 1), 64), ((2, 1), 64), ((2, 1, 1), 24)])
def test_scatter_on_a_lattice_credits_only_members_holding_the_cell(density, ks, cells):
    # a cell takes an anchor's value only if the anchor's member holds it, so
    # the scatter never exceeds the brute-force scatter of the lattice values
    dim = len(ks)
    g = make_grid(dim, 1.0, cells)
    s = make_structure(dim, ks)
    rng = np.random.default_rng(len(ks) + int(density))
    for shape in (maximal._member_shape(s), "cube"):
        family = BallFamily.for_structure(s, g, density=density, shape=shape)
        for rho in family.radii[::2]:
            stride = maximal._anchor_stride(g, rho, density)
            if stride == 1:
                continue  # exact there: test_scatter_at_stride_1_is_the_member_scatter
            lattice = rng.normal(size=[-(-n // stride) for n in g.cells])
            got = maximal._scatter_max(lattice, member_offsets(g, s, rho, shape), stride,
                                       np.full(g.cells, -np.inf))
            assert (got <= brute_scatter(lattice, g, s, rho, shape, stride)).all()


def test_scatter_of_a_strided_cylinder_stays_in_its_members():
    # the (1+1)-D cylinder of the default family at rho = 0.297, stride 2
    g = make_grid(2, 1.0, 64)
    s = make_structure(2, (2, 1))
    rho = BallFamily.for_structure(s, g).radii[9]
    stride = maximal._anchor_stride(g, rho, 4.0)
    assert stride == 2
    lattice = np.random.default_rng(3).normal(size=(32, 32))
    got = maximal._scatter_max(lattice, member_offsets(g, s, rho, "cylinder"), stride,
                               np.full(g.cells, -np.inf))
    want = brute_scatter(lattice, g, s, rho, "cylinder", stride)
    assert (got <= want).all() and np.isfinite(got).any()


def brute_block_scatter(lattice, grid, structure, rho, shape, stride):
    """max of lattice[j] over the anchors stride * j whose member holds every
    cell of the cell's stride block stride * (z // stride) + [0, stride)^dim,
    the block not clipped to the grid, one anchor at a time; -inf where no
    member does."""
    member = member_offsets(grid, structure, rho, shape)
    stencil, origin = member.mask, member.origin
    corner = stride * (np.indices(grid.cells).reshape(grid.dim, -1).T // stride)
    out = np.full(corner.shape[0], -np.inf)
    for j in np.ndindex(lattice.shape):
        held = np.ones(corner.shape[0], dtype=bool)
        for e in np.ndindex((stride,) * grid.dim):
            o = corner + np.asarray(e) - stride * np.asarray(j) + np.asarray(origin)
            ok = np.all((o >= 0) & (o < stencil.shape), axis=1)
            held &= ok
            held[ok] &= stencil[tuple(o[ok].T)]
        out[held] = np.maximum(out[held], lattice[j])
    return out.reshape(grid.cells)


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
@pytest.mark.parametrize("ks, shape", [((1,), "ball"), ((2,), "cylinder"), ((2,), "ellipsoid"),
                                       ((2,), "cube"), ((1, 1), "ball"), ((2, 1), "cylinder"),
                                       ((1, 2), "ellipsoid"), ((2, 1), "cube"),
                                       ((1, 1, 1), "ball"), ((2, 1, 1), "cylinder"),
                                       ((1, 2, 1), "ellipsoid"), ((1, 1, 1), "cube")])
def test_scatter_maxes_into_a_finite_accumulator(ks, shape, stride):
    # the scatter maxes into the radius loop's sup in place: a random finite
    # accumulator becomes max(acc, block scatter) bit for bit, by the runs
    # alone at stride 1 and through the expanded lattice past it
    dim = len(ks)
    g = make_grid(dim, 1.0, {1: 42, 2: 14, 3: 10}[dim])  # partial blocks at strides 3, 4
    s = make_structure(dim, ks)
    rng = np.random.default_rng([dim, stride])
    credited = False
    for rho in (0.3, 0.7, 1.4):
        lattice = rng.standard_normal([-(-n // stride) for n in g.cells])
        acc = rng.standard_normal(g.cells)
        scatter = brute_block_scatter(lattice, g, s, rho, shape, stride)
        # the accumulator wins at some cells and the lattice at others
        credited |= bool((scatter > acc).any() and (acc > scatter).any())
        want = np.maximum(acc, scatter)
        assert maximal._scatter_max(lattice, member_offsets(g, s, rho, shape), stride,
                                    acc) is acc
        assert np.array_equal(acc, want)
    assert credited


def test_fast_len_is_the_smallest_5_smooth_length():
    smooth = set()
    for a in range(13):
        for b in range(8):
            for c in range(6):
                m = 2 ** a * 3 ** b * 5 ** c
                if m <= 8192:
                    smooth.add(m)
    ordered = sorted(smooth)
    for n in range(1, 4097):
        assert _fast_len(n) == next(m for m in ordered if m >= n), n


@settings(max_examples=300, deadline=None)
@given(member_stencils())
def test_table_stencils_have_no_empty_face(case):
    # a table stencil is cut to the bounding box of its cells: along every
    # axis its first and its last layer each hold a cell
    member, _cells = case
    mask = member.mask
    for ax in range(mask.ndim):
        assert np.take(mask, 0, axis=ax).any() and np.take(mask, -1, axis=ax).any()
    assert mask[member.origin]


def test_equal_cell_sets_give_equal_records_that_share_one_count():
    # a ball of radius 2h, a cube of side 3h and the smallest box are the
    # same 3 x 3 cells: equal records, one stored count and one footprint
    g, s = make_grid(2, 1.0, 32), make_structure(2, (1, 1))
    h = g.h[0]
    records = [member_offsets(g, s, 2 * h, "ball"), member_offsets(g, s, 3 * h, "cube"),
               member_offsets(g, s, h, "box")]
    assert len({id(r) for r in records}) == 3
    assert all(r == records[0] and hash(r) == hash(records[0]) for r in records)
    assert records[0].mask.shape == (3, 3) and records[0].mask.all()
    count = maximal._COUNTS.get(records[0], (20, 24))
    stored = len(maximal._COUNTS.counts)
    assert all(maximal._COUNTS.get(r, (20, 24)) is count for r in records)
    assert len(maximal._COUNTS.counts) == stored
    footprint = maximal._block_footprint(records[0], 2)
    assert all(maximal._block_footprint(r, 2) is footprint for r in records)
    # other cell sets are other records, with their own counts
    for other in (member_offsets(g, s, 2.5 * h, "ball"), member_offsets(g, s, 5 * h, "cube"),
                  member_offsets(g, s, 2.5 * h, "box")):
        assert other != records[0] and other.key != records[0].key
        assert maximal._COUNTS.get(other, (20, 24)) is not count



def _distinct(keys):
    """The keys that differ from the key before them: the member sums a
    radius loop makes."""
    return [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]


def _recording(monkeypatch, module, name, pick):
    """Replace module.name by a wrapper that records pick(args) of each call."""
    calls, fn = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(pick(args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


# (dim, cells, anisotropy, shape) of the radius-loop cases: every one has
# radii with equal members
LOOP_CASES = [(1, 64, (1,), "ball"), (2, 24, (1, 1), "ball"), (2, 24, (2, 1), "cylinder"),
              (2, 20, (1, 1), "cube"), (3, 10, (1, 1, 1), "cube")]


def _loop_case(dim, cells, ks, shape, seed=0):
    g, s = make_grid(dim, 1.0, cells), make_structure(dim, ks)
    family = BallFamily.for_structure(s, g, shape=shape)
    rng = np.random.default_rng([dim, seed])
    f = Field(g, rng.standard_normal(g.cells) * rng.random(g.cells) ** 3)
    members = [member_offsets(g, s, rho, shape) for rho in family.radii]
    strides = [maximal._anchor_stride(g, rho, family.density) for rho in family.radii]
    assert len(_distinct(members)) < len(members)
    return g, s, family, f, members, strides


@pytest.mark.parametrize("dim, cells, ks, shape", LOOP_CASES)
@pytest.mark.parametrize("dense", [False, True])
def test_sweep_yields_each_radius_member_and_stride_and_the_first_of_each_run(dim, cells, ks,
                                                                             shape, dense):
    # with a density the strides are _anchor_stride's, without one every
    # cell is an anchor; new holds exactly at the first radius of each run
    # of equal (member, stride)
    g, s, family, _f, members, strides = _loop_case(dim, cells, ks, shape)
    density = family.density if dense else None
    if not dense:
        strides = [1] * len(members)
    got = list(maximal._sweep(g, s, family.radii, shape, density))
    assert [rho for rho, _m, _s, _n in got] == list(family.radii)
    assert all(m is want for (_r, m, _s, _n), want in zip(got, members))
    assert [stride for _r, _m, stride, _n in got] == strides
    pairs = list(zip(members, strides))
    assert [new for _r, _m, _s, new in got] == [i == 0 or pairs[i] != pairs[i - 1]
                                                for i in range(len(pairs))]
    assert not all(new for _r, _m, _s, new in got)


@pytest.mark.parametrize("dim, cells, ks, shape", LOOP_CASES)
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_sup_of_means_sums_each_distinct_member_once(dim, cells, ks, shape, beta, monkeypatch):
    # one member sum per distinct member; at beta 0 one scatter per distinct
    # (member, stride), since an equal lattice adds nothing, else one per
    # radius; M_w sums its density once per distinct member too
    g, s, family, f, members, strides = _loop_case(dim, cells, ks, shape)
    sums = _recording(monkeypatch, maximal, "_member_means", lambda a: a[2])
    scatters = _recording(monkeypatch, maximal, "_scatter_max", lambda a: (a[1], a[2]))
    classical_maximal(f, s, beta, family)
    assert sums == _distinct(members)
    pairs = list(zip(members, strides))
    assert scatters == (_distinct(pairs) if beta == 0 else pairs)
    sums.clear()
    corr = _recording(monkeypatch, maximal, "_correlate", lambda a: a[1])
    maximal.weighted_maximal(f, Field(g, 0.5 + np.abs(f.values)), s, family)
    assert sums == _distinct(members)
    assert corr == [m for m in _distinct(members) for _ in range(2)]


@pytest.mark.parametrize("dim, cells, ks, shape", LOOP_CASES)
def test_classical_sharp_oscillates_each_distinct_member_and_stride_once(dim, cells, ks, shape,
                                                                        monkeypatch):
    g, s, family, f, members, strides = _loop_case(dim, cells, ks, shape)
    oscs = _recording(monkeypatch, maximal, "_mean_oscillation", lambda a: (a[1], a[2][0]))
    classical_sharp(f, s, family)
    assert oscs == _distinct(list(zip(members, strides)))


@pytest.mark.parametrize("dim, cells, ks, shape", [c for c in LOOP_CASES if c[3] != "cube"])
def test_morrey_sup_sums_each_distinct_member_once(dim, cells, ks, shape, monkeypatch):
    # a Morrey sup takes the structure's own shape, so no cube case
    from morreylab import norms

    g, s, family, f, members, _strides = _loop_case(dim, cells, ks, shape)
    sums = _recording(monkeypatch, norms, "_member_means", lambda a: a[2])
    norms._morrey_sup([f], 2.0, 0.5, s, family.radii)
    assert sums == _distinct(members)


@pytest.mark.parametrize("reversed_order", [False, True])
def test_mixed_morrey_sup_sums_each_distinct_ball_once(reversed_order, monkeypatch):
    # the standard order sums each distinct x-ball once; the reversed order
    # averages over t first, so it sums each distinct (x-ball, t-window)
    from morreylab import norms

    g, s = make_grid(2, 1.0, (48, 40)), make_structure(2, (2, 1))
    f = Field(g, np.random.default_rng(2).standard_normal(g.cells))
    radii = _family_radii(g, s)
    kept = [(r, max(1, int(round(r ** 2 / g.h[0])))) for r in radii]
    kept = [(member_offsets(g, s, r, "ball_x"), w) for r, w in kept if w <= g.cells[0]]
    want = _distinct(kept) if reversed_order else _distinct([m for m, _w in kept])
    assert len(want) < len(kept)
    sums = _recording(monkeypatch, norms, "_member_means", lambda a: a[2])
    _mixed_morrey_sup(f, 1.5, 3.0, 0.5, s, radii, reversed_order=reversed_order)
    assert sums == ([m for m, _w in want] if reversed_order else want)


@pytest.mark.parametrize("ks", [(1, 1), (2, 1)])
def test_bmo_seminorms_oscillate_each_distinct_member_once(ks, monkeypatch):
    from morreylab import norms

    # a# oscillates over each distinct ball (or ellipsoid) of each entry
    # once, and a## over each distinct x-ball, as a one-row cylinder
    g, s = make_grid(2, 1.0, 32), make_structure(2, ks)
    a = Field(g, 1.0 + np.random.default_rng(4).random(g.cells))
    radii = _family_radii(g, s, 0.6)
    shape = "ball" if ks == (1, 1) else "ellipsoid"
    balls = _distinct([member_offsets(g, s, r, shape) for r in radii])
    rows = _distinct([member_offsets(g, s, r, "ball_x") for r in radii
                      if max(1, int(round(r ** 2 / g.h[0]))) <= g.cells[0]]
                     if s.parabolic else [])
    assert len(balls) < len(radii)
    oscs = _recording(monkeypatch, norms, "_mean_oscillation", lambda a: a[1])
    bmo_seminorms([a, a], 0.6, s)
    assert oscs[:2 * len(balls)] == 2 * balls
    cylinders = oscs[2 * len(balls):]
    assert len(cylinders) == 2 * len(rows)
    for cylinder, ball in zip(cylinders, 2 * rows):
        assert cylinder.mask.shape == (1,) + ball.mask.shape
        assert np.array_equal(cylinder.mask[0], ball.mask)
        assert cylinder.origin == (0,) + ball.origin


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_ap_loops_sum_each_distinct_box_once(p, monkeypatch):
    from morreylab import weights

    g, s = make_grid(2, 1.0, 24), make_structure(2, (1, 1))
    w = weights.Weight(Field(g, 0.2 + np.random.default_rng(6).random(g.cells) ** 3))
    family = BallFamily.for_structure(s, g, shape="cube", rho_max=2.0 * min(g.half_extent))
    boxes = _distinct([member_offsets(g, s, rho, "box") for rho in family.radii])
    assert len(boxes) < len(family.radii)
    sums = _recording(monkeypatch, weights, "_member_means", lambda a: a[2])
    mins = _recording(monkeypatch, weights, "_running_min", lambda a: a[1])
    weights.ap_constant(w, p, s)
    assert sums == [b for b in boxes for _ in range(1 if p == 1 else 2)]
    assert mins == ([b.mask.shape for b in boxes] if p == 1 else [])
    # reverse Holder: one mean of w^(1+eps) per distinct box and eps, and one
    # of w per distinct box for every eps
    means = _recording(monkeypatch, weights, "_cube_means", lambda a: a[1])
    weights.reverse_holder(w, p, s, eps_grid=[0.1, 0.2])
    assert means == [b for b in boxes for _ in range(2)] + boxes


def _per_radius_max(fn, radii):
    """np.maximum over one evaluation per radius, each with no radius to
    reuse: the reference of a radius loop's sup."""
    return np.maximum.reduce([fn(rho) for rho in radii])


@pytest.mark.parametrize("dim, cells, ks, shape", LOOP_CASES)
def test_radius_loops_are_bit_identical_to_one_radius_at_a_time(dim, cells, ks, shape):
    g, s, family, f, _members, _strides = _loop_case(dim, cells, ks, shape, seed=1)

    def alone(rho):
        return BallFamily((rho,), family.shape, family.density)

    for beta in (0.0, 0.5):
        want = _per_radius_max(lambda r: classical_maximal(f, s, beta, alone(r)).values,
                               family.radii)
        assert np.array_equal(classical_maximal(f, s, beta, family).values, want)
    want = _per_radius_max(lambda r: classical_sharp(f, s, alone(r)).values, family.radii)
    assert np.array_equal(classical_sharp(f, s, family).values, want)
    w = Field(g, 0.5 + np.abs(f.values))
    want = _per_radius_max(lambda r: maximal.weighted_maximal(f, w, s, alone(r)).values,
                           family.radii)
    assert np.array_equal(maximal.weighted_maximal(f, w, s, family).values, want)
    if shape == maximal._member_shape(s):
        (best, profile), = _morrey_sup([f], 2.0, 0.5, s, family.radii)
        assert profile == [_morrey_sup([f], 2.0, 0.5, s, (r,))[0][1][0] for r in family.radii]
        assert best == max(m for _r, m in profile)


@pytest.mark.parametrize("reversed_order", [False, True])
def test_mixed_morrey_profile_is_bit_identical_to_one_radius_at_a_time(reversed_order):
    g, s = make_grid(2, 1.0, (48, 40)), make_structure(2, (2, 1))
    f = Field(g, np.random.default_rng(3).standard_normal(g.cells))
    radii = _family_radii(g, s)
    best, profile = _mixed_morrey_sup(f, 1.5, 3.0, 0.5, s, radii, reversed_order)
    want = [m for r in radii for m in _mixed_morrey_sup(f, 1.5, 3.0, 0.5, s, (r,),
                                                        reversed_order)[1]]
    assert profile == want and best == max(m for _r, m in want)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_ap_constant_is_bit_identical_to_one_radius_at_a_time(p, monkeypatch):
    from morreylab import weights

    g, s = make_grid(2, 1.0, 24), make_structure(2, (1, 1))
    w = weights.Weight(Field(g, 0.2 + np.random.default_rng(7).random(g.cells) ** 3))
    want = weights.ap_constant(w, p, s, return_argmax=True)
    best, arg = 1.0, None
    for rho in weights._cube_radii(s, g):
        monkeypatch.setattr(weights, "_cube_radii", lambda _s, _g, rho=rho: (rho,))
        m, at = weights.ap_constant(w, p, s, return_argmax=True)
        if m > best:
            best, arg = m, at
    assert want == (best, arg)
