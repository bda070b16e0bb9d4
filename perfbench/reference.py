"""Served-model inputs the benchmark owns, and an independent forward pass.

`checkpoint_document` draws every ANLF parameter block from the benchmark's
own seeded generator and lays it out as a version-1 `loadcast-checkpoint`
document (sixteen named blocks per LSTM direction).  The served model
therefore depends neither on `init_params`'s draw order nor on training.

`anlf_forecast` recomputes a window's forecast from those same arrays with
plain numpy and no tape.  It shares no code with `loadcast`, so the forecast
the program serves can be checked against it under a float64 tolerance that
holds for any change that keeps the arithmetic of the model.
"""

import numpy as np

GATES = "ifgo"
HIDDEN = 32
FEATURE_ATTN = 16
TEMPORAL_ATTN = 16
HEAD = 32
DAYS = 7
DAY_LEN = 24
N_FEATURES = 45

# Pipeline state written into the served checkpoint: plausible statistics of
# the synthetic series, and a holiday calendar covering its year.
STANDARDIZATION = {"load_mean": 950.0, "load_std": 160.0,
                   "temperature_mean": 11.0, "temperature_std": 9.5}
HOLIDAYS = ["2022-01-01"]


def model_config(seed):
    return {"days": DAYS, "day_len": DAY_LEN, "n_features": N_FEATURES,
            "hidden_size": HIDDEN, "feature_attn_size": FEATURE_ATTN,
            "temporal_attn_size": TEMPORAL_ATTN, "head_size": HEAD,
            "variant": "ANLF", "seed": seed}


def _lstm_shapes(prefix, input_size):
    shapes = {}
    for gate in GATES:
        shapes[f"{prefix}.w_{gate}x"] = (HIDDEN, input_size)
    for gate in GATES:
        shapes[f"{prefix}.w_{gate}h"] = (HIDDEN, HIDDEN)
    for source in "xh":
        for gate in GATES:
            shapes[f"{prefix}.b_{gate}{source}"] = (HIDDEN,)
    return shapes


def parameter_shapes():
    """Name -> shape of every ANLF block in the version-1 layout."""
    width = 2 * HIDDEN
    history = DAYS * DAY_LEN
    shapes = {"feature_attn.proj": (FEATURE_ATTN, width + N_FEATURES + 1),
              "feature_attn.score": (N_FEATURES, FEATURE_ATTN)}
    for direction in ("forward", "backward"):
        shapes.update(_lstm_shapes(f"encoder.{direction}", N_FEATURES + 1))
    shapes["temporal_attn.proj"] = (TEMPORAL_ATTN, width + N_FEATURES)
    shapes["temporal_attn.score"] = (history, TEMPORAL_ATTN)
    for direction in ("forward", "backward"):
        shapes.update(_lstm_shapes(f"decoder.{direction}", N_FEATURES + width))
    shapes["head.hidden"] = (HEAD, DAY_LEN * width)
    shapes["head.out"] = (DAY_LEN, HEAD)
    return shapes


def draw_parameters(seed):
    """Uniform draws in +-1/sqrt(hidden), in a fixed name order."""
    rng = np.random.default_rng([seed, 0x10AD])
    bound = 1.0 / np.sqrt(HIDDEN)
    return {name: rng.uniform(-bound, bound, shape)
            for name, shape in parameter_shapes().items()}


def checkpoint_document(seed, params):
    return {"format": "loadcast-checkpoint", "version": 1,
            "config": model_config(seed),
            "standardization": dict(STANDARDIZATION),
            "holidays": list(HOLIDAYS),
            "params": [{"name": name, "shape": list(arr.shape),
                        "values": arr.reshape(-1).tolist()}
                       for name, arr in params.items()]}


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _cell(p, prefix, h, c, x):
    def gate(g):
        return (p[f"{prefix}.w_{g}x"] @ x + p[f"{prefix}.b_{g}x"]
                + p[f"{prefix}.w_{g}h"] @ h + p[f"{prefix}.b_{g}h"])

    i, f, o = _sigmoid(gate("i")), _sigmoid(gate("f")), _sigmoid(gate("o"))
    c = f * c + i * np.tanh(gate("g"))
    return o * np.tanh(c), c


def _run(p, prefix, inputs, h, c):
    out = []
    for x in inputs:
        h, c = _cell(p, prefix, h, c, x)
        out.append(h)
    return out, h, c


def anlf_forecast(p, x_hist, y_hist, x_future):
    """ANLF forecast for one window, in standardized load units."""
    zero = np.zeros(HIDDEN)
    h, c = zero, zero
    inputs, forward_h = [], []
    for x, y in zip(x_hist, y_hist):
        joint = np.concatenate([h, zero, x, [y]])
        weights = _softmax(p["feature_attn.score"]
                           @ np.tanh(p["feature_attn.proj"] @ joint))
        step = np.concatenate([weights * x, [y]])
        h, c = _cell(p, "encoder.forward", h, c, step)
        inputs.append(step)
        forward_h.append(h)
    enc_fh, enc_fc = h, c
    backward_h, enc_bh, enc_bc = _run(p, "encoder.backward", inputs[::-1], zero, zero)
    states = np.stack([np.concatenate([f, b])
                       for f, b in zip(forward_h, backward_h[::-1])])

    days = x_hist.reshape(DAYS, DAY_LEN, N_FEATURES)
    diff = days - x_future[np.newaxis]
    distance = np.sqrt((diff * diff).sum(axis=1)).sum(axis=1)
    day_weights = _softmax(np.minimum(1.0 / (distance + 1e-8), 1e8))
    day_grid = np.repeat(day_weights, DAY_LEN)

    h, c = enc_fh, enc_fc
    inputs, forward_h = [], []
    for x in x_future:
        joint = np.concatenate([h, enc_bh, x])
        hours = _softmax(p["temporal_attn.score"]
                         @ np.tanh(p["temporal_attn.proj"] @ joint))
        step = np.concatenate([x, (day_grid * hours) @ states])
        h, c = _cell(p, "decoder.forward", h, c, step)
        inputs.append(step)
        forward_h.append(h)
    backward_h, _h, _c = _run(p, "decoder.backward", inputs[::-1], enc_bh, enc_bc)
    stacked = np.concatenate([np.concatenate([f, b])
                              for f, b in zip(forward_h, backward_h[::-1])])
    return p["head.out"] @ np.maximum(p["head.hidden"] @ stacked, 0.0)
