# Tour of the temporal block zoo: what each block is made of, how many
# parameters it carries at width 512, and proof that every one is causal.

import numpy as np

from tempconv import Tensor
from tempconv.blocks import BLOCK_KINDS, DEFAULT_EXPANSION, make_block

WIDTH = 512

print(f"{'kind':<18} {'expansion':>9} {'params @512':>12}  taps")
print("-" * 52)
for kind in BLOCK_KINDS:
    blk = make_block(kind, WIDTH, dilation=1, dropout=0.0)
    e = DEFAULT_EXPANSION.get(kind)
    taps = blk.rf_taps()
    print(f"{kind:<18} {str(e) if e else '-':>9} "
          f"{blk.param_count():>12,}  "
          f"{len(taps)} x k{taps[0][0]}")

# Every block preserves shape and never lets the future leak backwards.
# Perturb everything after frame 5 and compare the first 5 frames bitwise.
print("\ncausality (bitwise, eval mode):")
rng = np.random.default_rng(0)
for kind in BLOCK_KINDS:
    blk = make_block(kind, 16, dilation=2, dropout=0.0)
    blk.init_parameters(np.random.default_rng(1))
    blk.eval()
    x = rng.standard_normal((1, 16, 12)).astype(np.float32)
    y = x.copy()
    y[:, :, 5:] += 10.0
    same = np.array_equal(blk(Tensor(x)).data[:, :, :5],
                          blk(Tensor(y)).data[:, :, :5])
    print(f"  {kind:<18} past unchanged: {same}")

# The star blocks mix two parallel pointwise branches with an elementwise
# product; the gate branch is rectified, so silencing it collapses the body.
blk = make_block("starv", 8, dilation=1, dropout=0.0)
blk.init_parameters(np.random.default_rng(2))
blk.eval()
blk.branch1.weight.data[...] = 0.0
blk.branch1.bias.data[...] = -100.0    # relu6 gate pinned at zero
blk.dw_out.bias.data[...] = 0.0
x = rng.standard_normal((1, 8, 6)).astype(np.float32)
print("\nstarv with a silenced gate reduces to its shortcut:",
      np.allclose(blk(Tensor(x)).data, x, atol=1e-6))
