"""Truncated fractional-difference kernels and their scalar summaries.

The Grunwald-Letnikov backward difference of order ``alpha`` is
approximated by a finite weighted history sum with weights

    c_0 = 1,   c_i = (i - alpha - 1)/i * c_{i-1} = (-1)^i * C(alpha, i),

where ``C`` is the generalized binomial coefficient.  Everything downstream
(impedance evaluation, passivity bounds, effective stiffness/damping) is
expressed in terms of these weights and three derived sums:

    delta_p = sum_i (-1)^i c_i        (alternating sum, binds at Nyquist)
    delta_s = sum_i c_i               (plain sum, binds at DC)
    delta_d = -sum_i i * c_i          (first-moment sum, DC damping)

Their closed forms C(N - alpha, N), alpha * C(N - alpha, N - 1) and the tail
bound 2^alpha - C(alpha, N + 1) are generalized binomials: binom_general takes
each as one falling-factorial product in extended precision, at any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GLKernel",
    "build_kernel",
    "binom_general",
    "delta_p",
    "delta_p_asymptotic",
    "delta_p_sufficient",
    "delta_s",
    "delta_d",
    "s_of_omega",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0) or not math.isfinite(alpha):
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha}")
    return alpha


def _check_n_mem(n_mem: int) -> int:
    if n_mem != int(n_mem) or int(n_mem) < 0:
        raise ValueError(f"memory length must be a nonnegative integer, got {n_mem}")
    return int(n_mem)


def _check_t_samp(t_samp: float) -> float:
    t_samp = float(t_samp)
    if not (t_samp > 0.0) or not math.isfinite(t_samp):
        raise ValueError(f"sampling period must be positive, got {t_samp}")
    return t_samp


@dataclass(frozen=True)
class GLKernel:
    """Immutable truncated difference kernel.

    alpha   fractional order, 0 < alpha <= 1
    n_mem   memory length N (number of past samples retained)
    t_samp  sampling period T [s]
    coeffs  weights c_0..c_N; c_0 == 1, c_i < 0 for i >= 1 when alpha < 1
    """

    alpha: float
    n_mem: int
    t_samp: float
    coeffs: np.ndarray

    @property
    def nyquist(self) -> float:
        """Highest representable frequency pi/T [rad/s]."""
        return math.pi / self.t_samp


def build_kernel(alpha: float, n_mem: int, t_samp: float) -> GLKernel:
    """Construct the kernel with weights computed by the downward recursion."""
    alpha = _check_alpha(alpha)
    n_mem = _check_n_mem(n_mem)
    t_samp = _check_t_samp(t_samp)
    i = np.arange(1, n_mem + 1, dtype=float)
    coeffs = np.concatenate(([1.0], np.cumprod((i - alpha - 1.0) / i)))
    coeffs.setflags(write=False)
    return GLKernel(alpha=alpha, n_mem=n_mem, t_samp=t_samp, coeffs=coeffs)


def _coeffs_dalpha(kernel: GLKernel) -> np.ndarray:
    """Order derivatives dc_i/dalpha of the weights, by the differentiated recursion

        dc_0 = 0,   dc_i = (i - alpha - 1)/i * dc_{i-1} - c_{i-1}/i,

    which stays exact at alpha = 1, where c_i vanishes for i >= 2 but dc_i does not.
    """
    i = np.arange(1.0, kernel.n_mem + 1)
    dc = [0.0]
    for ratio, push in zip(((i - kernel.alpha - 1.0) / i).tolist(), (-kernel.coeffs[:-1] / i).tolist()):
        dc.append(ratio * dc[-1] + push)
    return np.array(dc)


def binom_general(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for real upper argument.

    Integer upper arguments reduce exactly to the ordinary binomial (0 above
    the diagonal); any other is the weights' falling-factorial product
    prod_{j<k} (a - j)/(j + 1) in extended precision.  Above the diagonal
    (a > k - 1, as in C(N - alpha, N)) its partial products climb to ~2^a, so
    from a ~ 16383 (the extended range) the upper argument is first reflected,
    exactly: C(a, k) = (-1)^k C(k - a - 1, k), whose factors all lie on one
    side of 1 in magnitude, so its partial products run monotonically to the
    result.  Below that the product is left as it is: reflected, it rounds
    differently, which cancellation in the low-frequency ES shows at 12 digits.
    """
    if k != int(k) or int(k) < 0:
        raise ValueError(f"lower index must be a nonnegative integer, got {k}")
    k = int(k)
    a = float(alpha)
    if not math.isfinite(a):
        raise ValueError(f"upper argument must be finite, got {alpha}")
    if k == 0:
        return 1.0
    if a == int(a):
        n = int(a)
        if n >= 0:
            return float(math.comb(n, k)) if k <= n else 0.0
        # negative integer upper argument: C(-m, k) = (-1)^k C(m+k-1, k)
        m = -n
        return float((-1) ** (k % 2) * math.comb(m + k - 1, k))
    upper, sign = np.longdouble(a), 1.0
    if k - 1 < a and a + 1 >= np.finfo(np.longdouble).maxexp:
        upper, sign = k - upper - 1, (-1.0) ** (k % 2)
    j = np.arange(k, dtype=np.longdouble)
    return sign * float(np.prod((upper - j) / (j + 1)))


def delta_p(kernel: GLKernel) -> float:
    """Alternating coefficient sum sum_i (-1)^i c_i, evaluated directly."""
    signs = np.where(np.arange(kernel.n_mem + 1) % 2 == 0, 1.0, -1.0)
    return float(np.dot(signs, kernel.coeffs))


def delta_p_asymptotic(alpha: float) -> float:
    """Limit of the alternating sum as the memory length grows: 2**alpha."""
    return 2.0 ** _check_alpha(alpha)


def delta_p_sufficient(alpha: float, n_mem: int) -> float:
    """Conservative upper stand-in 2**alpha - C(alpha, N+1), odd N only.

    The alternating-series tail bound makes this strictly larger than the
    exact sum for odd N, so bounds computed with it stay on the safe side.
    """
    alpha = _check_alpha(alpha)
    n_mem = _check_n_mem(n_mem)
    if n_mem % 2 == 0:
        raise ValueError("tail-bounded alternating sum is defined for odd memory lengths only")
    return 2.0**alpha - binom_general(alpha, n_mem + 1)


def delta_s(alpha: float, n_mem: int) -> float:
    """Plain coefficient sum; closed form C(N - alpha, N)."""
    alpha = _check_alpha(alpha)
    n_mem = _check_n_mem(n_mem)
    return binom_general(n_mem - alpha, n_mem)


def delta_d(alpha: float, n_mem: int) -> float:
    """First-moment sum -sum_i i*c_i; closed form alpha * C(N - alpha, N - 1)."""
    alpha = _check_alpha(alpha)
    n_mem = _check_n_mem(n_mem)
    if n_mem < 1:
        raise ValueError("first-moment sum needs at least one memory term")
    return alpha * binom_general(n_mem - alpha, n_mem - 1)


def _check_omegas(omegas, t_samp: float, allow_dc: bool = False) -> np.ndarray:
    """The frequencies as a float array, each required to lie in (0, pi/T]
    ([0, pi/T] with allow_dc), with 1e-12 relative slack at Nyquist."""
    omegas = np.asarray(omegas, dtype=float)
    above_lo = omegas >= 0.0 if allow_dc else omegas > 0.0
    bad = omegas[~(above_lo & (omegas <= math.pi / t_samp * (1.0 + 1e-12)))]
    if bad.size:
        band = "[0, pi/T]" if allow_dc else "(0, pi/T]"
        raise ValueError(f"omega must lie in {band}, got {bad[0]}")
    return omegas


def _flat_omegas(omegas, t_samp: float, allow_dc: bool = False) -> tuple[np.ndarray, tuple]:
    """The checked frequencies as a 1-D array, with the shape to return results in.

    Evaluators compute on this 1-D array only, so a scalar omega takes the
    same arithmetic as that omega inside an array (0-d operands can round
    differently): off the FFT grid each frequency's spectrum is its own row
    product (see _s_conj_values), so a batch equals its elementwise scalar
    calls bit for bit.  A batch that is exactly the grid takes the FFT
    instead, which agrees with the direct sum to roundoff, not to the bit.
    """
    omegas = _check_omegas(omegas, t_samp, allow_dc)
    return omegas.ravel(), omegas.shape


def _shaped(values: np.ndarray, shape: tuple):
    """Values computed on _flat_omegas in the input's shape: a Python float (or
    complex) for a scalar."""
    return values[0].item() if shape == () else values.reshape(shape)


def s_of_omega(kernel: GLKernel, omegas):
    """Coefficient spectrum S = sum_k c_k e^{+ik w T} at frequencies in
    [0, pi/T]: a complex for a scalar omega, else an array of omega's shape.

    S(0) equals delta_s and S(pi/T) equals delta_p exactly; |S| is bounded
    by sum |c_k|.  The impedance reads the conjugate, S.conjugate().
    """
    flat, shape = _flat_omegas(omegas, kernel.t_samp, allow_dc=True)
    return _shaped(_s_conj_values(kernel, flat).conjugate(), shape)


def _s_conj_infinite(omegas, t_samp: float, alpha: float):
    """Infinite-memory spectrum sum_k c_k e^{-ik w T} = (1 - e^{-i w T})^alpha.

    The principal power: for w T in [0, pi] the base sits in the closed right
    half plane, clear of the branch cut.  At alpha = 1 it is also the exact
    spectrum of every kernel with N >= 1.
    """
    return (1.0 - np.exp(-1j * np.asarray(omegas, dtype=float) * t_samp)) ** alpha


def _s_conj_values(kernel: GLKernel, omegas: np.ndarray) -> np.ndarray:
    """Vector of sum_k c_k e^{-ik w T} over frequencies omegas.

    On the grid ``np.linspace(0, pi/T, G + 1)[1:]`` (G >= 2) this is the real FFT
    of the coefficients folded mod 2G (e^{-ik w T} has period 2G in k there);
    elsewhere it is the direct sum.  The direct sum is a stack of one-row
    products, not one matrix-vector product (whose BLAS blocking rounds a row
    differently with the rows around it): a frequency's value does not depend
    on the other frequencies in the call, so it runs in chunks of at most 256
    frequencies and 2**22 terms, whatever N is.
    """
    omegas = np.asarray(omegas, dtype=float)
    g = omegas.size
    # linspace ends exactly on its stop, so the last-point test only saves building the grid
    on_grid = g >= 2 and omegas[-1] == kernel.nyquist
    if on_grid and np.array_equal(omegas, np.linspace(0.0, kernel.nyquist, g + 1)[1:]):
        k = np.arange(kernel.n_mem + 1)
        folded = np.bincount(k % (2 * g), weights=kernel.coeffs, minlength=2 * g)
        return np.fft.rfft(folded)[1 : g + 1]
    k = np.arange(kernel.n_mem + 1, dtype=float)
    out = np.empty(omegas.shape, dtype=complex)
    chunk = max(1, min(256, 2**22 // k.size))
    for lo in range(0, omegas.size, chunk):
        w = omegas[lo : lo + chunk]
        rows = np.exp(-1j * ((w * kernel.t_samp)[:, None] * k))[:, None, :]
        out[lo : lo + chunk] = (rows @ kernel.coeffs)[:, 0]
    return out


def _taylor_terms(reach: float) -> int:
    """Terms the spectrum's Taylor series needs out to |x| = reach (see
    _s_conj_taylor): the first count whose next term is at most 2^-56 of
    sum|c_k|, which leaves the tail below roundoff.  At most 18 for
    reach <= pi/4: one cell of a grid of at least 4(N+1) points, the
    farthest the even-N searches go from the grid point expanded about."""
    terms, term = 1, reach
    while term > 2.0**-56:
        terms += 1
        term *= reach / terms
    return terms


def _s_conj_taylor(kernel: GLKernel, omega: float, terms: int) -> np.ndarray:
    """Taylor coefficients a_0..a_{terms-1} of the spectrum about one frequency omega.

    With u_k = k/(N+1) < 1 and x = (w - omega) T (N+1),

        sum_k c_k e^{-ik w T} = sum_m a_m (-ix)^m,   a_m = sum_k u_k^m c_k e^{-ik omega T} / m!,

    so |a_m| <= sum|c_k| / m!.  Each a_m is a sum over the N + 1 weights
    for this omega alone: the coefficients do not depend on any other
    frequency being expanded.
    """
    k = np.arange(kernel.n_mem + 1, dtype=float)
    u = k / (kernel.n_mem + 1)
    weighted = kernel.coeffs * np.exp(-1j * ((omega * kernel.t_samp) * k))
    a = np.empty(terms, dtype=complex)
    factorial = 1.0
    for m in range(terms):
        a[m] = weighted.sum() / factorial
        weighted *= u
        factorial *= m + 1
    return a


def _taylor_values(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m a[..., m] (-ix)^m by Horner's rule in real arithmetic; the
    coefficient rows a[..., m] broadcast against x."""
    re, im = a[..., -1].real, a[..., -1].imag
    for m in range(a.shape[-1] - 2, -1, -1):
        re, im = x * im + a[..., m].real, a[..., m].imag - x * re
    return re + 1j * im
