"""DOP853, the explicit Runge-Kutta 8(5,3) of Dormand and Prince with its
7th-degree dense output (Hairer, Nørsett and Wanner, *Solving Ordinary
Differential Equations I*, §II.10), in numpy alone.

`dop853` replays `scipy.integrate.solve_ivp(method="DOP853")`: the same
tableau, the same `np.dot` calls on arrays of the same shapes, the same
initial step, error norm and step control, and the dense output built only
for a step that holds an output point.  So `t`, `y` and the count of
right-hand-side calls equal scipy's bit for bit, which the tests check.  A
terminal event only reports the step at which it fired, with no root search.
"""

import numpy as np

SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 8

# scipy's tableau, float for float (the tests compare them).  A is listed row by row
# below its diagonal; row 12 holds the weights B, rows 13 to 15 the dense output's stages.
C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778])
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0,
    0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
B = A[12, :12]
# the error estimators of orders 5 and 3, and the coefficients of degrees 3
# to 6 of the dense output; all vanish on stages 1 to 4
E3, E5, D = np.zeros(13), np.zeros(13), np.zeros((4, 16))
E3[[0, *range(5, 12)]] = [
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082]
E5[[0, *range(5, 12)]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]]


def dop853(fun, t0, y0, t_bound, rtol, atol, t_eval=None, event=None):
    """Integrate y' = fun(t, y) from t0 to t_bound; returns (t, y, nfev, status).

    t holds t0 and every step's end or, given t_eval (decreasing, for a
    downward pass), the points of t_eval reached; y has a column per entry of
    t.  status is 0 once t_bound is reached, -1 when the step falls below ten
    ulps of t, and 1 when `event(t, y)`, a terminal event of direction -1,
    goes from >= 0 to <= 0; t and y then end at the step before.
    """
    t0, t_bound, atol = float(t0), float(t_bound), np.asarray(atol)
    y = np.asarray(y0).astype(float, copy=False)
    n, nfev, direction = y.size, 2, np.sign(t_bound - t0) if t_bound != t0 else 1
    f = np.asarray(fun(t0, y), dtype=float)
    # the initial step (Hairer, Nørsett and Wanner, §II.4), with the RMS norm
    interval, scale, root_n = abs(t_bound - t0), atol + np.abs(y) * rtol, n ** 0.5
    d0, d1 = np.linalg.norm(y / scale) / root_n, np.linalg.norm(f / scale) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = np.asarray(fun(t0 + h0 * direction, y + h0 * direction * f), dtype=float)
    d2 = np.linalg.norm((f1 - f) / scale) / root_n / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, interval)

    K_ext = np.empty((16, n))
    K = K_ext[:13]
    t, g, status = t0, None if event is None else event(t0, y0), None
    if t_eval is None:
        ts, ys = [t0], [y0]
    else:  # increasing, as np.searchsorted needs; a step takes a slice from the top
        ts, ys, t_eval = [np.empty(0)], [np.empty((n, 0))], np.asarray(t_eval)[::-1]
        i_eval = t_eval.size
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while h_abs >= min_step:  # a NaN step fails too, where scipy would loop
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 12):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = np.asarray(fun(t + C[s] * h, y + dy), dtype=float)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = np.asarray(fun(t + h, y_new), dtype=float)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
            error_norm = (0.0 if e5 == 0 and e3 == 0
                          else np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * n))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        else:
            status = -1
            break
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        if event is not None:
            g_new = event(t, y)
            if g >= 0 and g_new <= 0:
                status = 1
                break
            g = g_new
        if t_eval is None:
            ts.append(t)
            ys.append(y)
            continue
        i_new = np.searchsorted(t_eval, t, side="left")
        t_step = t_eval[i_new:i_eval][::-1]
        if t_step.size == 0:
            continue
        # dense output: three extra stages, then the x / (1 - x) Horner sum
        for s in range(13, 16):
            dy = np.dot(K_ext[:s].T, A[s, :s]) * h
            K_ext[s] = np.asarray(fun(t_old + C[s] * h, y_old + dy), dtype=float)
        nfev += 3
        F, delta_y = np.empty((7, n)), y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (f + K[0])
        F[3:] = h * np.dot(D, K_ext)
        x = ((t_step - t_old) / h)[:, None]
        y_step = np.zeros((len(x), n))
        for i, row in enumerate(F[::-1]):
            y_step += row
            y_step *= x if i % 2 == 0 else 1 - x
        y_step += y_old
        i_eval = i_new
        ts.append(t_step)
        ys.append(y_step.T)
    if t_eval is None:
        return np.array(ts), np.vstack(ys).T, nfev, status
    return np.hstack(ts), np.hstack(ys), nfev, status
