"""Independent naive reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (plain Python
loops, math module scalars) and shares no code with the package internals.
"""

import math

import numpy as np


def naive_mu(weights, biases, v_vec):
    """Per-sample forward pass: tanh hidden layers, softplus output."""
    h = [float(x) for x in v_vec]
    n_layers = len(weights)
    for k in range(n_layers):
        w = weights[k]
        b = biases[k]
        out = []
        for j in range(w.shape[1]):
            z = b[j]
            for i in range(w.shape[0]):
                z += h[i] * w[i, j]
            out.append(z)
        if k < n_layers - 1:
            h = [math.tanh(z) for z in out]
        else:
            z = out[0]
    # softplus, stable for large |z|
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def naive_accumulate(x, omega, d):
    """v[i,t,m] = sum over the window of x * exp(-omega_m * lag)."""
    K, T, M = x.shape
    v = np.zeros((K, T, M))
    for i in range(K):
        for t in range(T):
            for m in range(M):
                s = 0.0
                for lag in range(min(d, t + 1)):
                    s += x[i, t - lag, m] * math.exp(-omega[m] * lag)
                v[i, t, m] = s
    return v


def naive_intensity_field(params, counts, weather):
    """lambda/direct/indirect per cell, summing every kernel term explicitly.

    Weather is standardized + accumulated naively; the network is evaluated
    per sample with naive_mu. Kernel lags run 1..trig_window.
    """
    counts = np.asarray(counts, dtype=float)
    K, T = counts.shape
    x = (np.asarray(weather, dtype=float) - params.scaler.mean) / params.scaler.scale
    v = naive_accumulate(x, params.decay.omega, params.decay.window_slots)
    lam = np.zeros((K, T))
    direct = np.zeros((K, T))
    indirect = np.zeros((K, T))
    alpha = params.alpha.alpha
    for i in range(K):
        sources = [i] + [s for s, tgt in params.graph.edges if tgt == i]
        for t in range(T):
            d_it = params.gamma[i] * naive_mu(params.mlp.weights, params.mlp.biases, v[i, t])
            s_it = 0.0
            for j in sources:
                a = 1.0 if j == i else alpha[i, j]
                for lag in range(1, min(t, params.trig_window) + 1):
                    s_it += a * counts[j, t - lag] * params.beta[j] * math.exp(-params.beta[j] * lag)
            direct[i, t] = d_it
            indirect[i, t] = s_it
            lam[i, t] = d_it + s_it + params.eps
    return lam, direct, indirect


def naive_loglik(params, counts, weather):
    lam, _, _ = naive_intensity_field(params, counts, weather)
    counts = np.asarray(counts, dtype=float)
    return float(np.sum(-lam + counts * np.log(lam)))


def fd_gradient(f, x0, h=1e-5):
    """Central finite differences of a scalar function over a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for k in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        g[k] = (f(xp) - f(xm)) / (2 * h)
    return g


def brute_knn_edges(lats, lons, k, max_km):
    """Candidate edge set via a full distance matrix and per-row sorting."""

    def hav(la1, lo1, la2, lo2):
        r = 6371.0088
        p1, p2 = math.radians(la1), math.radians(la2)
        dp = p2 - p1
        dl = math.radians(lo2) - math.radians(lo1)
        a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
        return 2 * r * math.asin(math.sqrt(min(a, 1.0)))

    K = len(lats)
    edges = set()
    for u in range(K):
        d = [(hav(lats[u], lons[u], lats[v], lons[v]), v) for v in range(K) if v != u]
        d.sort()
        for dist, v in d[:k]:
            if dist <= max_km:
                edges.add((u, v))
                edges.add((v, u))
    return edges


def distance_matrix_km(units):
    """Dense K x K great-circle distances, every pair at once, with the same
    numpy operations as the library's haversine, so equal pairs tie alike."""
    lat = np.array([u.centroid_lat for u in units])
    lon = np.array([u.centroid_lon for u in units])
    p1, p2 = np.radians(lat[:, None]), np.radians(lat[None, :])
    dp = p2 - p1
    dl = np.radians(lon[None, :]) - np.radians(lon[:, None])
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * 6371.0088 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def dense_candidate_edges(units, k, max_km):
    """Candidate edge set from the dense distance matrix, one stable argsort per
    row; None when every centroid is co-located (the build refuses those)."""
    dist = distance_matrix_km(units)
    K = len(units)
    if np.max(dist[~np.eye(K, dtype=bool)]) == 0.0:
        return None
    edges = set()
    for u in range(K):
        d = dist[u].copy()
        d[u] = np.inf
        for v in np.argsort(d, kind="stable")[:k]:
            if d[v] <= max_km:
                edges.add((u, int(v)))
                edges.add((int(v), u))
    return edges


def brute_criticality(alpha, beta, counts, edges):
    """score(j) via the full (i, t, t') triple loop."""
    counts = np.asarray(counts, dtype=float)
    K, T = counts.shape
    scores = np.zeros(K)
    for i, j in ((tgt, src) for src, tgt in edges):
        if i == j:
            continue
        a = alpha[i, j]
        for t in range(T):
            for tp in range(t):
                scores[j] += a * counts[j, tp] * beta[j] * math.exp(-beta[j] * (t - tp))
    return scores


def poisson_loglik_cellwise(lam, counts):
    """sum(-lam + N log lam) without the log N! constant."""
    lam = np.asarray(lam, dtype=float)
    counts = np.asarray(counts, dtype=float)
    return float(np.sum(-lam + counts * np.log(lam)))


def add_at_coupling(alpha, X, adjoint=False):
    """The coupling sum X[i] + sum_j alpha[i, j] X[j] (or its transpose) as
    one np.add.at over the active edges in (target, source) order."""
    on = alpha.w != 0.0
    tgt, src, w = alpha.graph.tgt[on], alpha.graph.src[on], alpha.w[on]
    into, frm = (src, tgt) if adjoint else (tgt, src)
    out = X.copy()
    np.add.at(out, into, w.reshape((-1,) + (1,) * (X.ndim - 1)) * X[frm])
    return out
