"""Split-execution contracts: partition identities, message schema and
transport, functional equivalence against the centralized oracle, latency."""

from dataclasses import replace

import numpy as np
import pytest

from subnetpred.config import ModelConfig, TrainConfig
from subnetpred.model import count_params, forward, init_params, train
from subnetpred.split import (InProcessChannel, KIND_ACTIVATION,
                              KIND_GRADIENT, LatencyModel, ProtocolError,
                              SplitMessage, build_participants,
                              estimate_latency, latency_model_for, merge,
                              partition, partition_param_counts,
                              partition_workloads, split_train,
                              split_train_epoch)

CFG = ModelConfig(n_series=4, window=6, d_embed=16, n_heads=4, n_layers=2,
                  lstm_hidden=12, dropout=0.1, alpha=0.05)


def make_data(n=96, seed=0, cfg=CFG):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.window, cfg.n_series))
    y = rng.standard_normal((n, cfg.n_series))
    return x, y


def test_partition_counts_and_roundtrip():
    params = init_params(CFG, seed=0)
    part = partition(params, CFG)
    head, body, tail = partition_param_counts(part)
    assert head + body + tail == count_params(params)
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


def test_message_roundtrip_bytes():
    payload = np.random.default_rng(2).standard_normal((3, 5))
    msg = SplitMessage(KIND_ACTIVATION, "sa0", "server", 2, 7, payload)
    clone = SplitMessage.from_bytes(msg.to_bytes())
    assert clone.kind == msg.kind and clone.source == "sa0"
    assert clone.epoch == 2 and clone.batch == 7
    assert np.array_equal(clone.payload, payload)
    assert msg.payload_bits == payload.size * 64


def test_channel_orders_and_detects_loss():
    ch = InProcessChannel()
    a = SplitMessage(KIND_ACTIVATION, "sa0", "server", 0, 0, np.zeros(1))
    b = SplitMessage(KIND_ACTIVATION, "sa0", "server", 0, 1, np.ones(1))
    ch.send(a)
    ch.send(b)
    assert ch.recv("server", "sa0", KIND_ACTIVATION).batch == 0
    assert ch.recv("server", "sa0", KIND_ACTIVATION).batch == 1
    with pytest.raises(ProtocolError):
        ch.recv("server", "sa0", KIND_ACTIVATION)
    ch.drop_next("sa0", "server")
    ch.send(a)
    with pytest.raises(ProtocolError):
        ch.recv("server", "sa0", KIND_ACTIVATION)


@pytest.mark.parametrize("n_series", [4, 1])
@pytest.mark.parametrize("window", [6, 16])
def test_one_split_epoch_matches_centralized_training(window, n_series):
    # bit-exact with window centering on: from window 8 up, a plain mean
    # sums the client's contiguous column pairwise but the strided column of
    # the centralized batch in order, so both paths share one centering
    cfg = replace(CFG, window=window, n_series=n_series, center_windows=True)
    seed = 11
    x, y = make_data(96, 5, cfg)
    train_cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=32)

    central = train(cfg, x, y, train_cfg, seed)
    split, _ = split_train(partition(init_params(cfg, seed=seed), cfg), x, y,
                           train_cfg, InProcessChannel(), seed)
    for key, tensor in central.params.items():
        assert np.array_equal(split[key], tensor), key


def test_message_counts_per_batch():
    params = init_params(CFG, seed=6)
    part = partition(params, CFG)
    x, y = make_data(32, 6)
    clients, server = build_participants(part, x, y, lr=1e-3)
    ch = InProcessChannel()
    split_train_epoch(clients, server, ch, 0, epoch=0, batch_size=32)  # 1 batch
    m = CFG.n_series
    # heads up + body fan-out down = 2M activations; tail grads up + cut
    # grads down = 2M gradients
    assert ch.counts[KIND_ACTIVATION] == 2 * m
    assert ch.counts[KIND_GRADIENT] == 2 * m


def test_labels_never_leave_clients():
    params = init_params(CFG, seed=7)
    part = partition(params, CFG)
    x, y = make_data(32, 7)
    y = y + 1000.0   # make label values conspicuous
    clients, server = build_participants(part, x, y, lr=1e-3)
    seen = []
    ch = InProcessChannel()
    orig_send = ch.send

    def spy(msg):
        seen.append(msg.payload.copy())
        orig_send(msg)

    ch.send = spy
    split_train_epoch(clients, server, ch, 0, epoch=0, batch_size=32)
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
        ch.send(SplitMessage(KIND_ACTIVATION, cl.name, "server", 0, 0,
                             cl.head_forward(idx, masks=None)))
    tokens = np.stack([ch.recv("server", cl.name, KIND_ACTIVATION).payload
                       for cl in clients], axis=1)
    hs = server.body_forward(tokens, None)
    _, cache = forward(params, CFG, x[idx])
    assert np.array_equal(hs, cache["head"])


def test_total_gradient_conserved_across_boundary():
    # sum of squared grads assembled from participants equals centralized
    from subnetpred.model import backward as nn_backward
    from subnetpred.model import forward as nn_forward
    from subnetpred.model.losses import pinball_grad

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
    hidden = split_forward_batch(clients, server, ch, np.arange(64), masks, 0, 0)
    sq = 0.0
    for cl, h_m in zip(clients, hidden):
        _, dh = cl.tail_step(h_m)
        ch.send(SplitMessage(KIND_GRADIENT, cl.name, "server", 0, 0, dh))
    dhs = np.stack([ch.recv("server", c.name, KIND_GRADIENT).payload
                    for c in clients], axis=1)
    dtokens = server.body_backward(dhs)
    for m, cl in enumerate(clients):
        cl.head_backward(dtokens[:, m])
        sq += sum(float((g**2).sum()) for g in cl._grads.values())
    sq += sum(float((g**2).sum()) for g in server._grads.values())
    assert np.isclose(np.sqrt(sq), central_norm, rtol=1e-10)


def test_latency_closed_forms():
    lm = LatencyModel(client_flops=1e9, server_flops=1e9,
                      computing_intensity=1.0, uplink_bps=1e8, n_clients=1,
                      head_flops=0.0, body_flops=1e6, tail_flops=0.0,
                      up_bits=1024, down_bits=1024)
    rep = estimate_latency(lm, window=16)
    assert rep["server_compute_s"] == pytest.approx(1.6e-2)

    zero = LatencyModel(client_flops=1e9, server_flops=1e9,
                        computing_intensity=1.0, uplink_bps=1e8, n_clients=2,
                        head_flops=0.0, body_flops=0.0, tail_flops=0.0,
                        up_bits=1000, down_bits=500)
    rep0 = estimate_latency(zero, window=8)
    assert rep0["computation_s"] == 0.0
    assert rep0["total_s"] == rep0["communication_s"]

    base = estimate_latency(LatencyModel(n_clients=2), 16)
    double = estimate_latency(LatencyModel(n_clients=4), 16)
    assert double["server_compute_s"] == pytest.approx(2 * base["server_compute_s"])
    assert double["uplink_s"] == pytest.approx(2 * base["uplink_s"])
    assert double["head_compute_s"] == pytest.approx(base["head_compute_s"])


def test_partition_workloads_cover_total():
    from subnetpred.model.network import forward_flops
    w = partition_workloads(CFG)
    m = CFG.n_series
    total = m * (w["head_flops"] + w["tail_flops"]) + m * w["body_flops"]
    assert total == pytest.approx(forward_flops(CFG))
    lm = latency_model_for(CFG)
    assert lm.n_clients == CFG.n_series
