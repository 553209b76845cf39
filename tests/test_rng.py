"""Canary for the numpy `Generator` streams that every output byte rests on.

NEP 19 fixes a BitGenerator's bit stream, but it lets `Generator`'s
distribution algorithms change between numpy releases. Each case pins the
first draws of one method that the byte path calls, with the arguments the
code passes it, so a release that changes a stream fails the case that names
the method rather than a dozen opaque output digests.
"""

import hashlib

import numpy as np
import pytest

from lungmix.mixing import MIX_BLOCK
from lungmix.pipeline import PAD_EPS

# doubles of the Bernoulli mask: two whole blocks of the lungmix kernel and part of a third
MASK_LENGTH = 2 * MIX_BLOCK + 5
# both forms of `random` draw these doubles
RANDOM = "351b37b6bba3593e09f3fe0918168242f105a72250999ba9c8b1538bdb2dcae2"


def blockwise_random(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """`rng.random(n)`, drawn `MIX_BLOCK` doubles at a time into one reused
    buffer, as the lungmix kernel draws its Bernoulli mask."""
    buf, blocks = np.empty(min(MIX_BLOCK, n)), []
    for start in range(0, n, MIX_BLOCK):
        blocks.append(rng.random(out=buf[: n - start]).copy())
    return blocks


# method -> (its first draws from a fresh generator, sha256 of their bytes)
DRAWS = {
    # lambda in `masks.sample_lambda`, on either side of numpy's alpha = 1 switch
    "beta": (
        lambda rng: [rng.beta(a, a) for a in (0.2, 1.0, 5.0) for _ in range(4)],
        "73879581a23e1cd35a929b53b2cbe5a99efe018fe9efb5d969e2c1f9171122d0",
    ),
    # a pair in `dataset.pair_records`; patches in `patchmix` at lam 0.95 and 0.25
    "choice": (
        lambda rng: [
            rng.choice(n, size=k, replace=False)
            for n, k in ((16, 2), (16, 2), (512, 26), (512, 384))
        ],
        "4259ab282dee8a6103547627bc914d32ac4701afb0af267e956ffaa2441e2a98",
    ),
    # the roll's side and offset, and the cutmix offset (a range of one included)
    "integers": (
        lambda rng: [rng.integers(0, high) for high in (2, 2, 64000, 144000, 1, 30001)],
        "01cb9f292945035363a45d19a84cebf26635d88ede81e0dc768e3ee0a4c47bc6",
    ),
    # `masks.random_mask`'s one call, and the kernel's blockwise draws of the same doubles
    "random": (lambda rng: [rng.random(MASK_LENGTH)], RANDOM),
    "random-blockwise": (lambda rng: blockwise_random(rng, MASK_LENGTH), RANDOM),
    # `pipeline.placed`'s padding noise; `synth`'s noise floor, burst noise and onsets
    "uniform": (
        lambda rng: [
            rng.uniform(-PAD_EPS, PAD_EPS, 1000),
            rng.uniform(-1.0, 1.0, 1000),
            rng.uniform(0.0, 2.2),
            rng.uniform(100.0, 1000.0),
        ],
        "1207d8ea9e03430a96f94ecef53005f45ba6eefed46552654ccb1d7cb5642ac2",
    ),
}


@pytest.mark.parametrize("method", list(DRAWS))
def test_first_draws_are_pinned(method):
    draw, digest = DRAWS[method]
    h = hashlib.sha256()
    for x in draw(np.random.default_rng(2024)):
        h.update(np.asarray(x).tobytes())
    assert h.hexdigest() == digest
