"""Digests and control flow of the synthetic sampler on a fixed set of generator regimes.

usage: python tests/regimes.py [NAME ...]   (with src/ on PYTHONPATH, or tide installed)

Each config is drawn the way ``synthgen.generate`` draws it, on a fresh
``ThinningSampler``, and prints one JSON line: SHA-1 digests of the items and
of the sampler's state after the draw (per-item ``last``/``before`` bits/``at``,
``fallbacks`` and the generator state), the per-event loop's calls as
``(offset, lo)``, the fixed point's give-ups, and the CPU ms of ``draw``.
The hooks read the arguments by name, so the script runs unchanged on a
checkout whose private method signatures differ. Two checkouts must print
the same digests; a diff of their output shows where control flow moved.
Not part of the test suite: the strong regimes take tens of seconds.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time

import numpy as np

from tide.synthgen import SynthConfig, ThinningSampler, sample_truth

BENCH = dict(n_users=2000, n_items=1000, n_events=35_000)
CONFORMITY = dict(n_users=300, n_items=40, embed_dim=4, quality_scale=0.5, beta_scale=1.5, tau=1e4,
                  horizon=5_000_000, emb_std=0.1, seed=3)
OBSERVATION = dict(n_users=1000, n_items=300, n_events=100_000, seed=0, horizon=20_000_000,
                   embed_dim=16, emb_std=0.2, quality_scale=2.0, tau=5e5)

REGIMES = {
    **{f"bench-seed{s}": SynthConfig(seed=s, **BENCH) for s in range(41, 46)},
    "defaults": SynthConfig(),
    "small": SynthConfig(n_users=50, n_items=20, embed_dim=4, quality_scale=1.0, beta_scale=1.0, tau=2e4,
                         horizon=1_000_000, n_events=3000, seed=0),
    "strong-conformity": SynthConfig(n_events=9000, **CONFORMITY),
    "conformity-feedback": SynthConfig(n_events=20_000, **CONFORMITY),
    "3-items": SynthConfig(n_users=200, n_items=3, n_events=9000, seed=5),
    "tied-times": SynthConfig(n_users=200, n_items=300, n_events=9000, horizon=100, seed=6),
    "fallback-heavy": SynthConfig(n_users=200, n_items=2000, n_events=5000, quality_scale=0.2, seed=7),
    "recovery": SynthConfig(n_users=2000, n_items=500, n_events=200_000, horizon=20_000_000, embed_dim=16,
                            emb_std=0.1, quality_scale=0.8, beta_scale=1.2, tau=3e4, seed=0),
    "observation-beta0": SynthConfig(beta_scale=0.0, **OBSERVATION),
    "observation-beta3": SynthConfig(beta_scale=3.0, **OBSERVATION),
    **{f"bench-q{q}-b{b}": SynthConfig(quality_scale=q, beta_scale=b, seed=11, **BENCH)
       for q in (0.45, 0.5, 0.55, 0.6, 0.7) for b in (0.0, 0.1)},
}


def sha1(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def recorded(method, calls: list, *names):
    """``method``, appending the named arguments of every call to ``calls``."""
    signature = inspect.signature(method)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        calls.append([bound[name] for name in names])
        return method(*args, **kwargs)

    return wrapper


def run(config: SynthConfig) -> dict:
    rng = np.random.default_rng(config.seed)
    truth = sample_truth(config, rng)
    times = np.sort(rng.integers(0, config.horizon, config.n_events))
    users = rng.integers(0, config.n_users, config.n_events)
    first = rng.random(config.n_events)
    sampler = ThinningSampler(truth, config.tau, rng)
    scans, give_ups = [], []
    scan, give_up = ThinningSampler._scan, ThinningSampler._give_up
    ThinningSampler._scan = recorded(scan, scans, "offset", "lo")
    ThinningSampler._give_up = recorded(give_up, give_ups, "decided")
    try:
        started = time.process_time()
        items = sampler.draw(users, times, first)
        cpu_ms = 1e3 * (time.process_time() - started)
    finally:
        ThinningSampler._scan, ThinningSampler._give_up = scan, give_up
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    return {
        "items": sha1(items),
        "state": sha1(np.array(sampler.last), np.array(sampler.before).view(np.int64), np.array(sampler.at),
                      np.array([sampler.fallbacks]), np.frombuffer(state, dtype=np.uint8)),
        "fallbacks": sampler.fallbacks,
        "scans": [[int(offset), int(lo)] for offset, lo in scans],
        "give_ups": [int(decided) for decided, in give_ups],
        "cpu_ms": round(cpu_ms, 1),
    }


def main(names: list[str]) -> None:
    for name in names or REGIMES:
        print(json.dumps({"regime": name, **run(REGIMES[name])}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
