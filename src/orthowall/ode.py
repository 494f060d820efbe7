"""The DOP853 method (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 2nd ed., sec. II.4-II.6), Dormand and Prince's Runge-Kutta pair
of order 8(5,3) with a dense output of order 7, and the order-4 cumulative
quadrature :func:`_cumquad_right` of :mod:`inner`, :mod:`connect` and
:mod:`linop`.  The tableau is copied from scipy's
``scipy/integrate/_ivp/dop853_coefficients.py`` (scipy 1.17.1) with the same
decimal strings, so every float equals the one in ``scipy.integrate.DOP853``
(``tests/test_connect.py`` pins them); that file's BSD-3-Clause license is
reproduced below.

Every integration runs through one DOP853 kernel, :func:`_dop853`, with the
step control of scipy's ``DOP853`` and its tableau.  Every core shot,
:func:`_shoot`, is a plain 6-component shot that records its accepted steps.
The shooting Jacobians are exact: DOP853 applied to the variational equation
Phi' = J(s) Phi (sec. I.14) on a shot's own steps is the derivative of that
shot, so :func:`_step_tangents` forms it afterwards from the recorded stages,
in one vectorized pass over the steps.  The junction match pays for it only
at iterates where Newton takes a step.  The dense cores are built from the
steps of the accepted junction shots, continued past x_hat by a short shot;
no core is shot again.  At the anchor (g = 1.5, eps = 0.1) a solve makes 13
core shots and 8,618 field evaluations.

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import dynamics
from .params import NumericalFailure, Params

ODE_RTOL = 1e-12              # core shots
ODE_ATOL = 1e-14


class RealizationError(NumericalFailure):
    pass


# rows 0-11: the stages; row 12: the solution weights B; rows 13-15: the
# three extra stages of the dense output
A_FULL = np.zeros((16, 16))
A_FULL[1, 0] = 5.26001519587677318785587544488e-2

A_FULL[2, 0] = 1.97250569845378994544595329183e-2
A_FULL[2, 1] = 5.91751709536136983633785987549e-2

A_FULL[3, 0] = 2.95875854768068491816892993775e-2
A_FULL[3, 2] = 8.87627564304205475450678981324e-2

A_FULL[4, 0] = 2.41365134159266685502369798665e-1
A_FULL[4, 2] = -8.84549479328286085344864962717e-1
A_FULL[4, 3] = 9.24834003261792003115737966543e-1

A_FULL[5, 0] = 3.7037037037037037037037037037e-2
A_FULL[5, 3] = 1.70828608729473871279604482173e-1
A_FULL[5, 4] = 1.25467687566822425016691814123e-1

A_FULL[6, 0] = 3.7109375e-2
A_FULL[6, 3] = 1.70252211019544039314978060272e-1
A_FULL[6, 4] = 6.02165389804559606850219397283e-2
A_FULL[6, 5] = -1.7578125e-2

A_FULL[7, 0] = 3.70920001185047927108779319836e-2
A_FULL[7, 3] = 1.70383925712239993810214054705e-1
A_FULL[7, 4] = 1.07262030446373284651809199168e-1
A_FULL[7, 5] = -1.53194377486244017527936158236e-2
A_FULL[7, 6] = 8.27378916381402288758473766002e-3

A_FULL[8, 0] = 6.24110958716075717114429577812e-1
A_FULL[8, 3] = -3.36089262944694129406857109825
A_FULL[8, 4] = -8.68219346841726006818189891453e-1
A_FULL[8, 5] = 2.75920996994467083049415600797e1
A_FULL[8, 6] = 2.01540675504778934086186788979e1
A_FULL[8, 7] = -4.34898841810699588477366255144e1

A_FULL[9, 0] = 4.77662536438264365890433908527e-1
A_FULL[9, 3] = -2.48811461997166764192642586468
A_FULL[9, 4] = -5.90290826836842996371446475743e-1
A_FULL[9, 5] = 2.12300514481811942347288949897e1
A_FULL[9, 6] = 1.52792336328824235832596922938e1
A_FULL[9, 7] = -3.32882109689848629194453265587e1
A_FULL[9, 8] = -2.03312017085086261358222928593e-2

A_FULL[10, 0] = -9.3714243008598732571704021658e-1
A_FULL[10, 3] = 5.18637242884406370830023853209
A_FULL[10, 4] = 1.09143734899672957818500254654
A_FULL[10, 5] = -8.14978701074692612513997267357
A_FULL[10, 6] = -1.85200656599969598641566180701e1
A_FULL[10, 7] = 2.27394870993505042818970056734e1
A_FULL[10, 8] = 2.49360555267965238987089396762
A_FULL[10, 9] = -3.0467644718982195003823669022

A_FULL[11, 0] = 2.27331014751653820792359768449
A_FULL[11, 3] = -1.05344954667372501984066689879e1
A_FULL[11, 4] = -2.00087205822486249909675718444
A_FULL[11, 5] = -1.79589318631187989172765950534e1
A_FULL[11, 6] = 2.79488845294199600508499808837e1
A_FULL[11, 7] = -2.85899827713502369474065508674
A_FULL[11, 8] = -8.87285693353062954433549289258
A_FULL[11, 9] = 1.23605671757943030647266201528e1
A_FULL[11, 10] = 6.43392746015763530355970484046e-1

A_FULL[12, 0] = 5.42937341165687622380535766363e-2
A_FULL[12, 5] = 4.45031289275240888144113950566
A_FULL[12, 6] = 1.89151789931450038304281599044
A_FULL[12, 7] = -5.8012039600105847814672114227
A_FULL[12, 8] = 3.1116436695781989440891606237e-1
A_FULL[12, 9] = -1.52160949662516078556178806805e-1
A_FULL[12, 10] = 2.01365400804030348374776537501e-1
A_FULL[12, 11] = 4.47106157277725905176885569043e-2

A_FULL[13, 0] = 5.61675022830479523392909219681e-2
A_FULL[13, 6] = 2.53500210216624811088794765333e-1
A_FULL[13, 7] = -2.46239037470802489917441475441e-1
A_FULL[13, 8] = -1.24191423263816360469010140626e-1
A_FULL[13, 9] = 1.5329179827876569731206322685e-1
A_FULL[13, 10] = 8.20105229563468988491666602057e-3
A_FULL[13, 11] = 7.56789766054569976138603589584e-3
A_FULL[13, 12] = -8.298e-3

A_FULL[14, 0] = 3.18346481635021405060768473261e-2
A_FULL[14, 5] = 2.83009096723667755288322961402e-2
A_FULL[14, 6] = 5.35419883074385676223797384372e-2
A_FULL[14, 7] = -5.49237485713909884646569340306e-2
A_FULL[14, 10] = -1.08347328697249322858509316994e-4
A_FULL[14, 11] = 3.82571090835658412954920192323e-4
A_FULL[14, 12] = -3.40465008687404560802977114492e-4
A_FULL[14, 13] = 1.41312443674632500278074618366e-1

A_FULL[15, 0] = -4.28896301583791923408573538692e-1
A_FULL[15, 5] = -4.69762141536116384314449447206
A_FULL[15, 6] = 7.68342119606259904184240953878
A_FULL[15, 7] = 4.06898981839711007970213554331
A_FULL[15, 8] = 3.56727187455281109270669543021e-1
A_FULL[15, 12] = -1.39902416515901462129418009734e-3
A_FULL[15, 13] = 2.9475147891527723389556272149
A_FULL[15, 14] = -9.15095847217987001081870187138

A = A_FULL[:12, :12]
B = A_FULL[12, :12]
A_EXTRA = A_FULL[13:]

# the error estimators of orders 5 and 3, as two rows of E
E = np.zeros((2, 13))
E5, E3 = E
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# the rows 3-6 of the dense output (its first three rows come from the step)
D = np.zeros((4, 16))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3


class _Steps(NamedTuple):
    """Accepted DOP853 steps of an m-component shot: the knots ``ts``
    (n + 1), the states there ``ys`` (n + 1 x m) and each step's stages
    K0..K12 ``ks`` (n x 13 x m), K12 being the field at the step's end."""

    ts: np.ndarray
    ys: np.ndarray
    ks: np.ndarray

    def followed_by(self, more: _Steps) -> _Steps:
        """These steps continued by ``more``, which starts at their last knot."""
        return _Steps(np.concatenate([self.ts, more.ts[1:]]),
                      np.concatenate([self.ys, more.ys[1:]]),
                      np.concatenate([self.ks, more.ks]))


def _rms(v: np.ndarray) -> np.float64:
    return np.sqrt(v.dot(v)) / v.size**0.5


def _dop853(field, t0: float, t1: float, y0: np.ndarray, rtol,
            atol) -> tuple[np.ndarray, _Steps]:
    """Integrate the autonomous y' = field(y) from t0 to t1 by DOP853.

    The step control is scipy's ``DOP853`` (the initial-step rule, safety
    0.9, step factors within [0.2, 10], exponent -1/8, the combined
    err5/err3 error norm, a minimum step of 10 ulp of t), so the shot takes
    the same steps and field evaluations as ``solve_ivp(method="DOP853")``.
    A stage costs one product with the scaled tableau row, one add and the
    field.  Returns the state at t1 and the accepted steps.  A step below
    the minimum or an error norm that is not finite raises
    :class:`RealizationError`.
    """
    t0, t1 = float(t0), float(t1)
    direction = 1.0 if t1 >= t0 else -1.0
    length = abs(t1 - t0)
    y = np.asarray(y0, dtype=float)
    n = y.size
    K = np.empty((13, n))
    a_step = A_FULL[:13, :12].copy()  # the stages, then B; a contiguous copy scales 2x faster
    hA = np.empty_like(a_step)
    stages = [(hA[s, :s], K[:s]) for s in range(1, 12)]
    weights = (hA[12], K[:12])
    ts, ys, ks = [t0], [y], []
    with np.errstate(all="ignore"):
        f = field(y)
        # initial step (Hairer, Norsett & Wanner, sec. II.4)
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        d2 = _rms((field(y + h0 * direction * f) - f) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** 0.125)
        h_abs = float(min(100.0 * h0, h1, length))
        t = t0
        while direction * (t - t1) < 0.0:
            min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise RealizationError(f"DOP853 step below {min_step:.3g} at t = {t:.6g}")
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0.0:
                    t_new = t1
                h = t_new - t
                h_abs = abs(h)
                np.multiply(a_step, h, out=hA)
                K[0] = f
                for s, (a, k) in enumerate(stages, start=1):
                    K[s] = field(y + a.dot(k))
                y_new = y + weights[0].dot(weights[1])
                f_new = K[12] = field(y_new)
                err = E.dot(K) / (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
                e5, e3 = (err * err).sum(axis=1).tolist()
                norm = 0.0 if e5 == 0.0 and e3 == 0.0 else \
                    h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
                if not math.isfinite(norm):
                    raise RealizationError(f"DOP853 error norm is {norm} at t = {t:.6g}")
                if norm < 1.0:
                    factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.125)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * norm**-0.125)
                rejected = True
            ts.append(t_new)
            ys.append(y_new)
            ks.append(K.copy())
            t, y, f = t_new, y_new, f_new
    return y, _Steps(np.array(ts), np.array(ys), np.array(ks).reshape(-1, 13, n))


def _shoot(s0, span, p: Params) -> tuple[np.ndarray, _Steps]:
    """Core shot over ``span``: the state at ``span[1]`` and the shot's steps."""
    return _dop853(lambda y: dynamics.vector_field(y, p), *span, s0, ODE_RTOL, ODE_ATOL)


def _step_tangents(steps: _Steps, d_seed: np.ndarray, p: Params) -> np.ndarray:
    """Derivative of a core shot's end state in its k parameters (6 x k),
    carried along its recorded ``steps`` from the seed derivative ``d_seed``.

    DOP853 applied to the variational equation Phi' = J(s) Phi with the
    shot's own steps is the derivative of the shot (Hairer, Norsett & Wanner,
    Solving ODEs I, sec. I.14 and II.4-II.6).  In step n the stage state
    S_s = y_n + h_n sum_j A_sj K_j moves the tangents by L_s = J(S_s) (I +
    h_n sum_j A_sj L_j), and the step maps them by M_n = I + h_n sum_s b_s
    L_s.  The stage products run on all steps at once, with J's sparsity:
    rows 0-2 and 4 shift, rows 3 and 5 couple rows 0 and 4.
    """
    ts, ys, ks = steps
    h = np.diff(ts)[:, None, None]
    stages = ys[:-1, None] + h * np.einsum("sj,njm->nsm", A, ks[:, :12])
    j30, j34, j50, j54 = dynamics._coupling(stages[..., 0], stages[..., 4], p)
    eye = np.eye(6)
    L = np.empty((12, h.size, 6, 6))
    for s in range(12):
        D_s = eye + h * np.tensordot(A[s, :s], L[:s], axes=1)
        L[s, :, :3] = D_s[:, 1:4]
        L[s, :, 4] = D_s[:, 5]
        L[s, :, 3] = j30[:, s, None] * D_s[:, 0] + j34[:, s, None] * D_s[:, 4]
        L[s, :, 5] = j50[:, s, None] * D_s[:, 0] + j54[:, s, None] * D_s[:, 4]
    phi = d_seed
    for m in eye + h * np.tensordot(B, L, axes=1):
        phi = m @ phi
    return phi


def _dense_solution(p: Params, steps: _Steps) -> _DenseSolution:
    """The DOP853 dense output of a core shot's recorded steps: 3 extra stages
    per step, then the 7 interpolant rows F (Hairer, Norsett & Wanner, II.6)."""
    ts, ys, ks = steps
    h = np.diff(ts)
    K = np.empty((h.size, 16, ys.shape[1]))
    K[:, :13] = ks
    for Ki, hi, y in zip(K, h, ys):
        hA = hi * A_EXTRA
        for s in range(13, 16):
            Ki[s] = dynamics.vector_field(y + hA[s - 13, :s].dot(Ki[:s]), p)
    dy = ys[1:] - ys[:-1]
    hc = h[:, None]
    F = np.empty((h.size, 7, ys.shape[1]))
    F[:, 0] = dy
    F[:, 1] = hc * K[:, 0] - dy
    F[:, 2] = 2.0 * dy - hc * (K[:, 12] + K[:, 0])
    F[:, 3:] = hc[:, :, None] * np.einsum("jk,ikm->ijm", D, K)
    return _DenseSolution(ts[:-1], h, ys[:-1], F)


class _DenseSolution:
    """DOP853 step interpolants, stacked and evaluated on a 1-D array of
    abscissae in one pass, as ``OdeSolution.__call__`` evaluates them: the
    same segment choice (points outside the span extrapolate from the end
    steps) and, elementwise, the same dense output recurrence (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.6).  Step i starts at
    ``t_old[i]`` with ``y_old[i]``, has length ``h[i]`` and coefficient rows
    ``F[i]``.

    The recurrence's rows are also kept in the order it reads them, each
    contiguous over the steps, so that a read takes each row's steps with
    one ``take``: at 2,400 points that is 30% faster than gathering all of
    F[seg] at once, and holds one (n x 6) gather at a time instead of the
    (n x 7 x 6) one, which raised the peak allocation of ``orthowall
    solve`` by 0.5 MB (its tail-rate fit reads 2,400 points)."""

    def __init__(self, t_old, h, y_old, F):
        self.ascending = bool(h[0] >= 0.0)
        # the knots between steps choose the segment; the two end knots
        # only clip, so the last one is taken as t_old + h
        ts = np.append(t_old, t_old[-1] + h[-1])
        self.ts_sorted = ts if self.ascending else ts[::-1].copy()
        self.t_old, self.h, self.y_old, self.F = t_old, h, y_old, F
        self.horner = np.ascontiguousarray(F[:, ::-1].transpose(1, 0, 2))

    def __call__(self, t: np.ndarray) -> np.ndarray:
        last = self.h.size - 1
        seg = np.searchsorted(self.ts_sorted, t, side="left" if self.ascending else "right")
        seg = np.clip(seg - 1, 0, last)
        if not self.ascending:
            seg = last - seg
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        x1 = 1 - x
        y = np.zeros((t.size, self.y_old.shape[1]))
        for i, rows in enumerate(self.horner):
            y += rows.take(seg, axis=0)
            y *= x if i % 2 == 0 else x1
        y += self.y_old[seg]
        return y.T


def _cumquad_right(f: np.ndarray, h: float) -> np.ndarray:
    """Order-4 cumulative integral R[..., i] = int_{z_i}^{z_end} f along the
    last axis, on a uniform grid."""
    n = f.shape[-1]
    seg = np.empty(f.shape[:-1] + (n - 1,))
    seg[..., 0] = h * (9.0 * f[..., 0] + 19.0 * f[..., 1] - 5.0 * f[..., 2] + f[..., 3]) / 24.0
    seg[..., 1:-1] = h * (-f[..., :-3] + 13.0 * f[..., 1:-2] + 13.0 * f[..., 2:-1]
                          - f[..., 3:]) / 24.0
    seg[..., -1] = h * (f[..., -4] - 5.0 * f[..., -3] + 19.0 * f[..., -2] + 9.0 * f[..., -1]) / 24.0
    out = np.zeros(f.shape)
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out
