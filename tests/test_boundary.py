"""The single-sample boundary: ``Model`` on one sample equals the batched path.

A single sample is a (C, T, H, W) clip with the frontend, a (C, T) sequence
without it. Its logits must equal row 0 of the same sample sent as a batch
of one, bit for bit, and each row of a batch of three to float32 tolerance.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tempconv as tc
from tempconv import Tensor
from tempconv.blocks import BLOCK_KINDS

CLASSES = 5


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(BLOCK_KINDS))
    frontend = draw(st.booleans())
    stages = draw(st.integers(1, 2))
    width = draw(st.sampled_from([4, 8]))
    frames = draw(st.sampled_from([3, 5, 9]))
    seed = draw(st.integers(0, 2**16))
    overrides = [f"tcn.block_kind={kind}", f"tcn.stages={stages}",
                 f"tcn.channels={width}",
                 f"classifier.num_classes={CLASSES}"]
    if frontend:
        overrides += ["stem.out_channels=4", f"extractor.widths=4,{width}"]
    else:
        overrides.append("model.frontend=false")
    config = tc.parse_config("", overrides)
    return config, frames, seed


@settings(settings.get_profile("fastpath"), max_examples=40)
@given(cases())
def test_single_sample_equals_batched_rows(case):
    config, frames, seed = case
    model = tc.build_model(config, seed=seed).eval()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3,) + model.input_shape(frames, 8)).astype(np.float32)
    lens = rng.integers(1, frames + 1, size=3)

    single = model(Tensor(x[0])).data
    assert single.shape == (CLASSES,)
    np.testing.assert_array_equal(single, model(Tensor(x[:1])).data[0])

    masked = model(Tensor(x[0]), valid_len=int(lens[0])).data
    np.testing.assert_array_equal(masked, model(Tensor(x[:1]), valid_len=lens[:1]).data[0])

    batch = model(Tensor(x), valid_len=lens).data
    assert batch.shape == (3, CLASSES)
    for i in range(3):
        row = model(Tensor(x[i]), valid_len=int(lens[i])).data
        np.testing.assert_allclose(row, batch[i], rtol=1e-5, atol=1e-6)
