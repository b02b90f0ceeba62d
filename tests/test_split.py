"""Split-execution contracts: partition identities, message schema and
transport, functional equivalence against the centralized oracle, and the
message and bit counts against partition_workloads."""

from dataclasses import replace

import numpy as np
import pytest
from test_scenario import _faults_in_fresh_process

from subnetpred.config import ModelConfig, TrainConfig
from subnetpred.model.losses import pinball_grad, pinball_loss
from subnetpred.model.network import (backward, body_forward, client_forward,
                                      forward, init_params)
from subnetpred.model.optim import Adam, DropoutMasks
from subnetpred.model.train import TRAIN_DTYPE, batch_schedule, train
from subnetpred.split import runtime
from subnetpred.split.messages import (KIND_ACTIVATION, KIND_GRADIENT,
                                       InProcessChannel, ProtocolError,
                                       SplitMessage)
from subnetpred.split.partition import (CLIENT_KEYS, merge, partition,
                                        partition_workloads)
from subnetpred.split.runtime import split_train

CFG = ModelConfig(n_series=4, window=6, d_embed=16, n_heads=4, n_layers=2,
                  lstm_hidden=12, dropout=0.1, alpha=0.05)


def make_data(n=96, seed=0, cfg=CFG):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.window, cfg.n_series))
    y = rng.standard_normal((n, cfg.n_series))
    return x, y


def at_training_precision(x, y, params):
    """The windows, labels and parameters in the training dtype: the
    parameters as pipeline.stage_train casts them, the data as each
    training batch is cast."""
    return (x.astype(TRAIN_DTYPE), y.astype(TRAIN_DTYPE),
            {k: v.astype(TRAIN_DTYPE) for k, v in params.items()})


def test_partition_counts_and_roundtrip():
    params = init_params(CFG, seed=0)
    part = partition(params, CFG)
    owned = (sum(v.size for c in part.clients for v in c.values())
             + sum(v.size for v in part.body.values()))
    assert owned == sum(v.size for v in params.values())
    merged = merge(part)
    for key, tensor in params.items():
        assert np.array_equal(merged[key], tensor), key


def _spy_adam(monkeypatch):
    """Record (optimizer, gradients) at every Adam step: in split training
    the server's step comes first, then each client's in series order."""
    steps = []
    step = Adam.step

    def spy(self, params, grads):
        steps.append((self, grads))
        step(self, params, grads)

    monkeypatch.setattr(Adam, "step", spy)
    return steps


def _one_split_batch(monkeypatch, params, cfg, x, y, seed):
    """Split-train params on x, y as one batch; returns (batch loss, every
    gradient merged under the centralized names, Adam steps)."""
    steps = _spy_adam(monkeypatch)
    _, curve = split_train(partition(params, cfg), x, y,
                           TrainConfig(epochs=1, batch_size=len(x)),
                           InProcessChannel(), seed)
    assert len(steps) == 1 + cfg.n_series
    grads = {k: np.concatenate([g[k] for _, g in steps[1:]]) for k in CLIENT_KEYS}
    grads.update(steps[0][1])
    return curve[0], grads, steps


def _central_batch(params, cfg, x, y, seed):
    """Train's first batch of x, y, taken as one batch: (loss, gradients)."""
    idx = batch_schedule(len(x), len(x), seed, 0)[0]
    pred, cache = forward(params, cfg, x[idx], DropoutMasks(cfg.dropout, seed, 0, 0))
    grads = backward(params, cfg, cache, pinball_grad(pred, y[idx], cfg.alpha))
    return pinball_loss(pred, y[idx], cfg.alpha), grads


def test_head_output_shape_matches_body_input():
    # a [D] token per instance goes up and a [H] hidden state comes down;
    # the gradients cross back in the same shapes
    x, y = make_data(4, 1)
    sent = []
    ch = _spied_channel(lambda msg: sent.append(
        (msg.kind, msg.dest == "server", msg.payload.shape)))
    split_train(partition(init_params(CFG, seed=1), CFG), x, y,
                TrainConfig(epochs=1, batch_size=4), ch, 1)
    d, h = CFG.d_embed, CFG.lstm_hidden
    assert set(sent) == {(KIND_ACTIVATION, True, (4, d)),
                         (KIND_ACTIVATION, False, (4, h)),
                         (KIND_GRADIENT, True, (4, h)),
                         (KIND_GRADIENT, False, (4, d))}


def test_message_payload_bits():
    payload = np.random.default_rng(2).standard_normal((3, 5))
    msg = SplitMessage(KIND_ACTIVATION, "sa0", "server", payload)
    assert msg.payload_bits == 3 * 5 * 64
    assert SplitMessage(KIND_GRADIENT, "server", "sa0",
                        payload[:, 0]).payload_bits == 3 * 64
    assert SplitMessage(KIND_GRADIENT, "server", "sa0",
                        payload.astype(np.float32)).payload_bits == 3 * 5 * 32
    with pytest.raises(ValueError):
        SplitMessage("label", "sa0", "server", payload)


def test_channel_orders_and_detects_loss():
    ch = InProcessChannel()
    for value in (0.0, 1.0):
        ch.send(SplitMessage(KIND_ACTIVATION, "sa0", "server", np.full(1, value)))
    assert ch.recv("server", "sa0", KIND_ACTIVATION).payload[0] == 0.0
    assert ch.recv("server", "sa0", KIND_ACTIVATION).payload[0] == 1.0
    with pytest.raises(ProtocolError):
        ch.recv("server", "sa0", KIND_ACTIVATION)
    # a lost message is one never sent: sa1's arrives, sa0's does not
    ch.send(SplitMessage(KIND_ACTIVATION, "sa1", "server", np.zeros(1)))
    with pytest.raises(ProtocolError):
        ch.recv("server", "sa0", KIND_ACTIVATION)


@pytest.mark.parametrize("n_series", [4, 1])
@pytest.mark.parametrize("window", [6, 16])
def test_one_split_epoch_matches_centralized_training(window, n_series):
    # bit-exact through the window centering: from window 8 up, a plain
    # mean sums the client's contiguous column pairwise but the strided
    # column of the centralized batch in order, so both paths share one
    # centering
    cfg = replace(CFG, window=window, n_series=n_series)
    seed = 11
    x, y = make_data(96, 5, cfg)
    train_cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=32)

    central, central_curve = train(cfg, x, y, train_cfg, seed,
                                   init_params(cfg, seed=seed))
    split, split_curve = split_train(partition(init_params(cfg, seed=seed), cfg),
                                     x, y, train_cfg, InProcessChannel(), seed)
    assert split_curve == central_curve
    for key, tensor in central.items():
        assert np.array_equal(split[key], tensor), key


@pytest.mark.parametrize("window", [6, 16])
def test_split_epoch_at_training_precision_matches_centralized(window):
    cfg = replace(CFG, window=window)
    seed = 11
    x, y, init = at_training_precision(*make_data(96, 5, cfg),
                                       init_params(cfg, seed=seed))
    train_cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=32)

    part = partition(init, cfg)
    central, central_curve = train(cfg, x, y, train_cfg, seed, params=init)
    split, split_curve = split_train(part, x, y, train_cfg, InProcessChannel(),
                                     seed)
    assert split_curve == central_curve
    for key, tensor in central.items():
        assert tensor.dtype == TRAIN_DTYPE, key
        assert np.array_equal(split[key], tensor), key


@pytest.mark.parametrize("window", [6, 16])
def test_float64_windows_train_as_their_float32_cast(window):
    # train and the split clients gather each batch from the float64 windows
    # and labels and cast it to the parameters' dtype: casting element by
    # element gives the values of rows gathered from a cast copy, so every
    # step, and the checkpoint, equals training on pre-cast windows
    cfg = replace(CFG, window=window)
    seed = 11
    x, y = make_data(96, 5, cfg)
    x32, y32, init = at_training_precision(x, y, init_params(cfg, seed=seed))
    train_cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=32)

    def fresh():
        return {k: v.copy() for k, v in init.items()}

    cast, cast_curve = train(cfg, x32, y32, train_cfg, seed, fresh())
    x.flags.writeable = y.flags.writeable = False
    held, held_curve = train(cfg, x, y, train_cfg, seed, fresh())
    split, split_curve = split_train(partition(fresh(), cfg), x, y, train_cfg,
                                     InProcessChannel(), seed)
    assert held_curve == cast_curve == split_curve
    for key, tensor in cast.items():
        assert tensor.dtype == TRAIN_DTYPE, key
        assert held[key].dtype == split[key].dtype == TRAIN_DTYPE, key
        assert np.array_equal(held[key], tensor), key
        assert np.array_equal(split[key], tensor), key


class _ReadLog(np.ndarray):
    """A view that logs the index of every read and hands back plain
    arrays."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(super().__getitem__(key))


def test_clients_hold_views_of_the_training_tensors():
    # split training reads x and y where they are: client m gathers each
    # batch from its own column of each, and neither is copied, whole or
    # by column, before the batch is gathered
    x, y = make_data(16, 2)
    x.flags.writeable = y.flags.writeable = False
    x_log, y_log = x.view(_ReadLog), y.view(_ReadLog)
    x_log.reads, y_log.reads = [], []
    split_train(partition(init_params(CFG, seed=2), CFG), x_log, y_log,
                TrainConfig(epochs=2, batch_size=6), InProcessChannel(), 2)
    assert x_log.base is x and y_log.base is y
    columns = [slice(m, m + 1) for m in range(CFG.n_series)]
    batches = [idx for epoch in range(2) for idx in batch_schedule(16, 6, 2, epoch)]
    assert len(x_log.reads) == len(y_log.reads) == len(batches) * CFG.n_series
    for k, idx in enumerate(batches):
        for m, column in enumerate(columns):
            x_idx, *x_rest = x_log.reads[k * CFG.n_series + m]
            y_idx, *y_rest = y_log.reads[k * CFG.n_series + m]
            assert np.array_equal(x_idx, idx) and x_rest == [slice(None), column]
            assert np.array_equal(y_idx, idx) and y_rest == [column]


def _arrays(obj):
    """Every ndarray inside nested dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)


def test_one_step_at_training_precision_keeps_its_dtype(monkeypatch):
    # every parameter, gradient, Adam moment, cache array (masks and masked
    # activations included) and split payload stays in the training dtype:
    # an in-place update casts silently, so each is checked where it is made
    x, y, params = at_training_precision(*make_data(32, 3, CFG),
                                         init_params(CFG, seed=3))
    part = partition(params, CFG)
    masks = DropoutMasks(CFG.dropout, 3, 0, 0)
    pred, cache = forward(params, CFG, x, masks)
    dpred = pinball_grad(pred, y, CFG.alpha)
    grads = backward(params, CFG, cache, dpred)
    opt = Adam(params, lr=1e-3)
    opt.step(params, grads)
    central = [pred, cache, dpred, grads, params, opt.m, opt.v]
    assert cache["client"][1] is not None and cache["body"]["enc"][0][1] is not None

    payloads, made = [], []
    ch = _spied_channel(lambda msg: payloads.append(msg.payload))
    # every half's outputs, its caches included
    for name in ("client_forward", "body_forward", "tail_forward"):
        def spied(*args, half=getattr(runtime, name), **kwargs):
            made.append(half(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(runtime, name, spied)
    steps = _spy_adam(monkeypatch)
    split_train(part, x, y, TrainConfig(epochs=1, batch_size=32), ch, 3)
    assert len(payloads) == 4 * CFG.n_series
    assert len(made) == 2 * CFG.n_series + 1 and len(steps) == 1 + CFG.n_series
    assert made[0][2][1] is not None and made[CFG.n_series][1]["enc"][0][1] is not None
    split = [payloads, made, part.clients, part.body] + [
        [grads, opt.m, opt.v] for opt, grads in steps]
    for mode, state in (("central", central), ("split", split)):
        dtypes = {a.dtype for a in _arrays(state) if a.dtype.kind == "f"}
        assert dtypes == {np.dtype(TRAIN_DTYPE)}, mode


@pytest.mark.parametrize("b", [1, 2, 3, 6, 7])
@pytest.mark.parametrize("window", [6, 7, 16])
def test_split_gradients_equal_centralized_at_every_batch_size(b, window,
                                                               monkeypatch):
    # an epoch's last batch can have any size (the tiny preset's is 15);
    # every participant's gradient equals the centralized one bit for bit
    cfg = replace(CFG, window=window)
    x, y = make_data(b, 17, cfg)
    params = init_params(cfg, seed=17)
    loss, central = _central_batch(params, cfg, x, y, 17)

    split_loss, split, _ = _one_split_batch(monkeypatch, params, cfg, x, y, 17)
    assert split_loss == loss
    assert split.keys() == central.keys()
    for key, grad in central.items():
        assert np.array_equal(split[key], grad), key


def _spied_channel(record):
    """A channel whose send hands every message to record first."""
    ch = InProcessChannel()
    orig_send = ch.send

    def spy(msg):
        record(msg)
        orig_send(msg)

    ch.send = spy
    return ch


def test_message_counts_per_batch():
    params = init_params(CFG, seed=6)
    part = partition(params, CFG)
    x, y = make_data(32, 6)
    kinds = []
    ch = _spied_channel(lambda msg: kinds.append(msg.kind))
    split_train(part, x, y, TrainConfig(epochs=1, batch_size=32), ch, 0)  # 1 batch
    m = CFG.n_series
    # heads up + body fan-out down = 2M activations; tail grads up + cut
    # grads down = 2M gradients
    assert kinds.count(KIND_ACTIVATION) == 2 * m
    assert kinds.count(KIND_GRADIENT) == 2 * m
    assert len(kinds) == 4 * m


def test_every_message_sent_is_received():
    # each batch's 4M messages are all taken off the channel: after training,
    # no edge between any two endpoints holds a pending message
    x, y = make_data(40, 9)
    edges = set()
    ch = _spied_channel(lambda msg: edges.add((msg.source, msg.dest)))
    split_train(partition(init_params(CFG, seed=9), CFG), x, y,
                TrainConfig(epochs=2, batch_size=16), ch, 9)
    ends = ["server"] + [f"sa{m}" for m in range(CFG.n_series)]
    assert edges == {(s, d) for s in ends for d in ends
                     if (s == "server") != (d == "server")}
    for source in ends:
        for dest in ends:
            for kind in (KIND_ACTIVATION, KIND_GRADIENT):
                with pytest.raises(ProtocolError):
                    ch.recv(dest, source, kind)


def test_split_bits_equal_partition_workloads():
    # every instance sends each client's cut once forward and once backward:
    # a [D] token up and a [H] hidden state down, then a [H] gradient up and
    # a [D] token gradient down, whatever the batch split (40 = 16 + 16 + 8)
    n = 40
    x, y, params = at_training_precision(*make_data(n, 10),
                                         init_params(CFG, seed=10))
    part = partition(params, CFG)
    bits = []
    ch = _spied_channel(lambda msg: bits.append(msg.payload_bits))
    split_train(part, x, y, TrainConfig(epochs=1, batch_size=16), ch, 0)
    w = partition_workloads(CFG)
    assert sum(bits) == 2 * n * CFG.n_series * (w["up_bits"] + w["down_bits"])
    assert len(bits) == 3 * 4 * CFG.n_series


def test_labels_never_leave_clients():
    params = init_params(CFG, seed=7)
    part = partition(params, CFG)
    x, y = make_data(32, 7)
    y = y + 1000.0   # make label values conspicuous
    seen = []
    ch = _spied_channel(lambda msg: seen.append(msg.payload.copy()))
    split_train(part, x, y, TrainConfig(epochs=1, batch_size=32), ch, 0)
    for payload in seen:
        assert np.abs(payload).max() < 900.0


def test_shuffled_arrival_order_is_reordered_by_id():
    # the server gathers per client id, so send order must not matter
    params = init_params(CFG, seed=8)
    part = partition(params, CFG)
    x, y = make_data(24, 8)
    ch = InProcessChannel()
    idx = np.arange(12)
    for m in reversed(range(CFG.n_series)):     # reversed send order
        token, _, _ = client_forward(part.clients[m], x[idx, :, m:m + 1], None,
                                     first=m)
        ch.send(SplitMessage(KIND_ACTIVATION, f"sa{m}", "server", token[:, 0]))
    tokens = np.stack([ch.recv("server", f"sa{m}", KIND_ACTIVATION).payload
                       for m in range(CFG.n_series)], axis=1)
    hs, _ = body_forward(part.body, CFG, tokens, None)
    _, cache = forward(params, CFG, x[idx])
    assert np.array_equal(hs, cache["head"])


def test_total_gradient_conserved_across_boundary(monkeypatch):
    # sum of squared grads assembled from participants equals centralized
    seed = 13
    cfg = replace(CFG, dropout=0.0)
    x, y = make_data(64, seed)
    params = init_params(cfg, seed=seed)
    pred, cache = forward(params, cfg, x)
    grads = backward(params, cfg, cache, pinball_grad(pred, y, cfg.alpha))
    central_norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))

    _, _, steps = _one_split_batch(monkeypatch, params, cfg, x, y, seed)
    sq = sum(float((g**2).sum()) for _, part_grads in steps
             for g in part_grads.values())
    assert np.isclose(np.sqrt(sq), central_norm, rtol=1e-10)


def test_partition_workloads_cover_total():
    from subnetpred.model.network import forward_flops
    w = partition_workloads(CFG)
    m = CFG.n_series
    total = m * (w["head_flops"] + w["tail_flops"]) + m * w["body_flops"]
    assert total == pytest.approx(forward_flops(CFG))


# two one-epoch trainings of desk-shape random windows (6,984 instances, the
# desk model in the training dtype) in one process, centralized or split as
# PROTOCOL says; prints the minor page faults of the second
WARM_EPOCH_FAULTS = """
import resource
from dataclasses import replace
import numpy as np
from subnetpred.config import desk_preset
from subnetpred.model.network import init_params
from subnetpred.model.train import TRAIN_DTYPE, train
from subnetpred.split.messages import InProcessChannel
from subnetpred.split.partition import partition
from subnetpred.split.runtime import split_train
desk = desk_preset(0)
cfg = replace(desk.model, n_series=desk.deployment.sa_pairs_per_sn)
train_cfg = replace(desk.train, epochs=1)
rng = np.random.default_rng(0)
x = rng.standard_normal((6984, cfg.window, cfg.n_series))
y = rng.standard_normal((6984, cfg.n_series))
params = {k: v.astype(TRAIN_DTYPE) for k, v in init_params(cfg, 0).items()}
for k in range(2):
    if k == 1:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if PROTOCOL == "split":
        params, _ = split_train(partition(params, cfg), x, y, train_cfg,
                                InProcessChannel(), 0)
    else:
        params, _ = train(cfg, x, y, train_cfg, 0, params)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("protocol", ["central", "split"])
def test_warm_training_epoch_keeps_its_caches(protocol):
    # train and split_train keep the last batch's caches until the next
    # batch's forward has made its own; freed at the end of each step,
    # glibc's malloc hands their pages back to the OS and every batch faults
    # them in again: about 85,000 minor faults per warm split epoch and
    # 48,000 per centralized one, against under 3,000 with the caches kept
    script = f"PROTOCOL = {protocol!r}" + WARM_EPOCH_FAULTS
    assert _faults_in_fresh_process(script) <= 20_000
