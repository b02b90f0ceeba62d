"""Split-execution contracts: partition identities, message schema and
transport, functional equivalence against the centralized oracle, and the
message and bit counts against partition_workloads."""

from dataclasses import replace

import numpy as np
import pytest

from subnetpred.config import ModelConfig, TrainConfig
from subnetpred.model.network import forward, init_params
from subnetpred.model.train import TRAIN_DTYPE, train
from subnetpred.split.messages import (KIND_ACTIVATION, KIND_GRADIENT,
                                       InProcessChannel, ProtocolError,
                                       SplitMessage)
from subnetpred.split.partition import merge, partition, partition_workloads
from subnetpred.split.runtime import build_participants, split_train

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


def test_head_output_shape_matches_body_input():
    params = init_params(CFG, seed=1)
    part = partition(params, CFG)
    x, y = make_data(8, 1)
    clients, server = build_participants(part, x, y, lr=1e-3)
    token = clients[0].head_forward(np.arange(4), masks=None)
    assert token.shape == (4, CFG.d_embed)


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


def test_clients_hold_views_of_the_training_tensors():
    x, y = make_data(16, 2)
    clients, _ = build_participants(partition(init_params(CFG, seed=2), CFG),
                                    x, y, lr=1e-3)
    for m, cl in enumerate(clients):
        assert cl.x.base is x and cl.y.base is y
        assert np.array_equal(cl.x[:, :, 0], x[:, :, m])


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


def test_one_step_at_training_precision_keeps_its_dtype():
    # every parameter, gradient, Adam moment, cache array (masks and masked
    # activations included) and split payload stays in the training dtype:
    # an in-place update casts silently, so each is checked where it is made
    from subnetpred.model.losses import pinball_grad
    from subnetpred.model.network import backward
    from subnetpred.model.optim import Adam, DropoutMasks
    from subnetpred.split.runtime import split_step

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

    clients, server = build_participants(part, x, y, lr=1e-3)
    seen = []
    ch = _spied_channel(lambda msg: seen.append(msg.payload))
    for p in [server] + clients:
        def spied_step(params, grads, step=p.opt.step):
            seen.append(grads)
            step(params, grads)
        p.opt.step = spied_step
    split_step(clients, server, ch, np.arange(32), masks)
    split = [seen, server._cache] + [
        [cl._cache, cl.params, cl.opt.m, cl.opt.v] for cl in clients] + [
        server.params, server.opt.m, server.opt.v]
    assert len(seen) == 4 * CFG.n_series + 1 + CFG.n_series
    for mode, state in (("central", central), ("split", split)):
        dtypes = {a.dtype for a in _arrays(state) if a.dtype.kind == "f"}
        assert dtypes == {np.dtype(TRAIN_DTYPE)}, mode


@pytest.mark.parametrize("b", [1, 2, 3, 6, 7])
@pytest.mark.parametrize("window", [6, 7, 16])
def test_split_gradients_equal_centralized_at_every_batch_size(b, window):
    # an epoch's last batch can have any size (the tiny preset's is 15);
    # every participant's gradient equals the centralized one bit for bit
    from subnetpred.model.losses import pinball_grad, pinball_loss
    from subnetpred.model.network import backward
    from subnetpred.model.optim import DropoutMasks
    from subnetpred.split.partition import CLIENT_KEYS
    from subnetpred.split.runtime import split_forward_batch

    cfg = replace(CFG, window=window)
    x, y = make_data(b, 17, cfg)
    params = init_params(cfg, seed=17)
    masks = DropoutMasks(cfg.dropout, 17, 0, 0)
    pred, cache = forward(params, cfg, x, masks)
    central = backward(params, cfg, cache, pinball_grad(pred, y, cfg.alpha))

    clients, server = build_participants(partition(params, cfg), x, y, lr=1e-3)
    hidden = split_forward_batch(clients, server, InProcessChannel(),
                                 np.arange(b), masks)
    losses, dhs = zip(*(cl.tail_step(h_m) for cl, h_m in zip(clients, hidden)))
    assert sum(losses) == pinball_loss(pred, y, cfg.alpha)
    dhs = np.stack(dhs, axis=1)
    dtokens = server.body_backward(dhs)
    for m, cl in enumerate(clients):
        cl.head_backward(dtokens[:, m])
    split = {k: np.concatenate([cl._grads[k] for cl in clients]) for k in CLIENT_KEYS}
    split.update(server._grads)
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
    x, y = make_data(24, 8)
    clients, server = build_participants(partition(params, CFG), x, y, lr=1e-3)
    ch = InProcessChannel()
    idx = np.arange(12)
    for cl in reversed(clients):     # reversed send order
        ch.send(SplitMessage(KIND_ACTIVATION, cl.name, "server",
                             cl.head_forward(idx, masks=None)))
    tokens = np.stack([ch.recv("server", cl.name, KIND_ACTIVATION).payload
                       for cl in clients], axis=1)
    hs = server.body_forward(tokens, None)
    _, cache = forward(params, CFG, x[idx])
    assert np.array_equal(hs, cache["head"])


def test_total_gradient_conserved_across_boundary():
    # sum of squared grads assembled from participants equals centralized
    from subnetpred.model.losses import pinball_grad
    from subnetpred.model.network import backward as nn_backward
    from subnetpred.model.network import forward as nn_forward

    seed = 13
    x, y = make_data(64, seed)
    params = init_params(CFG, seed=seed)
    pred, cache = nn_forward(params, CFG, x)
    grads = nn_backward(params, CFG, cache, pinball_grad(pred, y, CFG.alpha))
    central_norm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))

    part = partition(params, CFG)
    clients, server = build_participants(part, x, y, lr=1e-3)
    ch = InProcessChannel()
    masks = None
    from subnetpred.split.runtime import split_forward_batch
    hidden = split_forward_batch(clients, server, ch, np.arange(64), masks)
    sq = 0.0
    for cl, h_m in zip(clients, hidden):
        _, dh = cl.tail_step(h_m)
        ch.send(SplitMessage(KIND_GRADIENT, cl.name, "server", dh))
    dhs = np.stack([ch.recv("server", c.name, KIND_GRADIENT).payload
                    for c in clients], axis=1)
    dtokens = server.body_backward(dhs)
    for m, cl in enumerate(clients):
        cl.head_backward(dtokens[:, m])
        sq += sum(float((g**2).sum()) for g in cl._grads.values())
    sq += sum(float((g**2).sum()) for g in server._grads.values())
    assert np.isclose(np.sqrt(sq), central_norm, rtol=1e-10)


def test_partition_workloads_cover_total():
    from subnetpred.model.network import forward_flops
    w = partition_workloads(CFG)
    m = CFG.n_series
    total = m * (w["head_flops"] + w["tail_flops"]) + m * w["body_flops"]
    assert total == pytest.approx(forward_flops(CFG))
