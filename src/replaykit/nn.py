"""Minimal dense networks with hand-written backprop.

Everything is float64 numpy. A network's parameters live in one flat
vector, ``params``, and its per-layer weights and biases are views into
it, so Adam, hard copy and Polyak blending each run as a few whole-vector
operations. ``forward`` returns a cache that ``backward`` consumes to
produce the parameter gradient (a flat vector in the same layout) and the
gradient with respect to the input, which actor-critic updates chain
through; a caller computes only the one it uses. ``forward`` takes a
(rows, input_dim) matrix, or a stack of single rows, which evaluates
many inputs in one call with the bits of a one-row matrix per row;
frozen-policy evaluation uses it.

The learner step allocates almost nothing: each network keeps one
private workspace per row count, built on first use. It holds the
stacked input block and hidden activations of a ``forward_pair`` of the
pair whose online half the network is, the online halves of which are
also a matrix ``forward``'s hidden activations, plus the backward
deltas and the flat parameter gradient. Only those two passes write it;
a stack of rows does not. Lifetimes follow from that:

* ``forward`` outputs and ``backward`` input gradients are always fresh
  arrays that the caller may keep;
* a cache is valid until the next matrix ``forward`` or ``forward_pair``
  through the same network with the same row count, or until the
  parameters change (each update bumps a version counter); ``backward``
  raises IntegrityError on a cache that is no longer valid, or that is
  not of this network's workspace, rather than read the wrong buffers;
* the parameter gradient ``backward`` returns is valid until the next
  ``backward`` through the same network with the same row count.

Copying a network (``copy.deepcopy`` or a pickle round trip) never
shares its workspaces.

A product of two 2-D operands (each layer of a matrix forward,
and both products of every backward layer) goes through ``np.dot``,
which hands it to BLAS with less dispatch than ``np.matmul``; stacks
(``forward_pair``'s (2, n, k) and evaluation's (n, 1, k) rows) need
``np.matmul``. On the builds the tests pin, both give the same bits.

A :class:`NetworkPair` holds an online network and its frozen target,
one architecture, as rows 0 and 1 of one (2, P) parameter array; each
is an ordinary network whose ``params`` is its row, so every update
above works on either unchanged. Target sync is an operation on the
pair: ``hard_copy`` copies the online row over the target row and
``soft_update`` blends it in. ``forward_pair`` evaluates both at
one row count in one stacked pass: per layer, one (2, n, fan_in) @
(2, fan_in, fan_out) matmul whose slices are each the product of a
plain matrix forward, so the bits are those of two ``forward`` calls.
It reads its inputs from, and writes its hidden activations into, the
online network's workspace for that row count; its outputs are fresh,
and its cache is one of the online network that ``backward`` accepts,
with the same lifetime as a matrix forward's.

Checkpoints are text with repr floats, so a load gives back every bit.
``save_checkpoint`` formats each weight and bias row in pieces of a few
hundred floats as the file is written: a save never holds the text of
the file, or of a whole row, at once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, IntegrityError, NumericalError
from .files import write_atomic

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("identity", "tanh")


@dataclass
class Mlp:
    """Fully connected network; weights[i] maps layer i to i + 1 with
    shape (fan_in, fan_out).

    The given weights and biases are validated and copied into the flat
    vector ``params`` (W0, b0, W1, b1, ... in row-major order); afterwards
    ``weights`` and ``biases`` are views into it.
    """

    layer_sizes: tuple[int, ...]
    hidden_activation: str
    output_activation: str
    output_scale: float
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    version: int = 0
    params: np.ndarray = field(init=False, repr=False, compare=False)
    _workspaces: dict[int, Workspace] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        sizes = self.layer_sizes = tuple(int(n) for n in self.layer_sizes)
        if len(sizes) < 2 or any(n < 1 for n in sizes):
            raise ValueError(f"layer_sizes needs >= 2 positive entries, got {sizes}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {HIDDEN_ACTIVATIONS}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"output_activation must be one of {OUTPUT_ACTIVATIONS}")
        self.output_scale = float(self.output_scale)
        if not (math.isfinite(self.output_scale) and self.output_scale > 0.0):
            raise ValueError(f"output_scale must be finite and > 0, got {self.output_scale}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError(f"layer_sizes {sizes} need {len(sizes) - 1} weights and biases")
        params = np.empty(sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:])))
        weights, biases = self.split(params)
        for view, given in zip(weights + biases, list(self.weights) + list(self.biases)):
            given = np.asarray(given, dtype=np.float64)
            if given.shape != view.shape:
                raise ValueError(f"parameter shape {given.shape} != expected {view.shape}")
            view[...] = given
        if not np.all(np.isfinite(params)):
            raise ValueError("network parameters must be finite")
        self.params, self.weights, self.biases = params, weights, biases

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like
        ``params``, or of a stack of such vectors along the last axis
        (weights of shape (..., fan_in, fan_out), biases (..., fan_out))."""
        weights, biases = [], []
        lead = flat.shape[:-1]
        start = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            end = start + fan_in * fan_out
            weights.append(flat[..., start:end].reshape(lead + (fan_in, fan_out)))
            biases.append(flat[..., end : end + fan_out])
            start = end + fan_out
        return weights, biases

    def workspace(self, rows: int) -> Workspace:
        """This network's workspace for ``rows``-row inputs, built on
        first use."""
        ws = self._workspaces.get(rows)
        if ws is None:
            ws = self._workspaces[rows] = Workspace(self, rows)
        return ws

    # Copies and pickles leave out the views and the workspaces, and
    # rebuild the views on the copy's own params; carried over as
    # arrays, weights and biases would no longer view params.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["weights"], state["biases"], state["_workspaces"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.weights, self.biases = self.split(self.params)
        self._workspaces = {}


class Workspace:
    """One network's buffers for inputs of one row count, the only ones
    it has for that count.

    ``x`` (2, rows, input_dim) and ``pair_hidden[i]`` (2, rows, n) are a
    ``forward_pair``'s input block and layer i's activations, row 0
    online and row 1 target; ``online_inputs`` are the activations
    entering each layer of the online half. ``hidden[i]``, layer i's
    activation of a matrix ``forward``, is the online half
    ``pair_hidden[i][0]``. ``delta[i]`` and ``temp[i]`` hold the loss
    gradient at layer i's output and its activation derivative, and
    ``grad`` the flat parameter gradient with per-layer views
    ``grad_weights`` and ``grad_biases``. ``generation`` counts the
    passes that wrote into it.
    """

    def __init__(self, net: Mlp, rows: int) -> None:
        sizes = net.layer_sizes
        self.generation = 0
        self.x = np.empty((2, rows, sizes[0]))
        self.pair_hidden = [np.empty((2, rows, n)) for n in sizes[1:-1]]
        self.hidden = [h[0] for h in self.pair_hidden]
        self.online_inputs = [self.x[0], *self.hidden]
        self.delta = [np.empty((rows, n)) for n in sizes[1:]]
        self.temp = [np.empty((rows, n)) for n in sizes[1:]]
        self.grad = np.empty_like(net.params)
        self.grad_weights, self.grad_biases = net.split(self.grad)


def init_mlp(
    layer_sizes,
    rng: np.random.Generator,
    hidden_activation: str = "tanh",
    output_activation: str = "identity",
    output_scale: float = 1.0,
    final_layer_scale: float = 1.0,
) -> Mlp:
    """Build a network with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
    weights and biases, drawn layer by layer (W0, b0, W1, ...).

    ``final_layer_scale`` shrinks the last layer's init, which keeps an
    actor's initial outputs near zero.
    """
    sizes = tuple(int(n) for n in layer_sizes)
    pairs = list(zip(sizes[:-1], sizes[1:]))
    net = Mlp(
        layer_sizes=sizes,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        output_scale=output_scale,
        weights=[np.zeros((fan_in, fan_out)) for fan_in, fan_out in pairs],
        biases=[np.zeros(fan_out) for _, fan_out in pairs],
    )
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        bound = 1.0 / np.sqrt(w.shape[0])
        if i == len(pairs) - 1:
            bound *= final_layer_scale
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return net


class NetworkPair:
    """An online network and its target, held as the two rows of one
    (2, P) parameter array so that :func:`forward_pair` evaluates both
    in one stacked pass.

    ``online`` and ``target`` are ordinary networks whose ``params`` are
    rows 0 and 1 of ``params`` (their ``weights`` and ``biases`` views
    into those rows), so ``adam_step`` and checkpoints act on either in
    place, and a copy of either alone is a standalone network.
    ``weights[i]`` (2, fan_in, fan_out) and ``biases[i]`` (2, 1,
    fan_out) view layer i of both rows. The given network becomes
    ``online``; the target starts as its copy, so the two share one
    architecture by construction.
    """

    def __init__(self, online: Mlp) -> None:
        self._join(online, copy.deepcopy(online))

    def _join(self, online: Mlp, target: Mlp) -> None:
        self.params = np.stack([online.params, target.params])
        for net, row in zip((online, target), self.params):
            net.params = row
            net.weights, net.biases = net.split(row)
        self.online, self.target = online, target
        weights, biases = online.split(self.params)
        self.weights, self.biases = weights, [b[:, None, :] for b in biases]
        # soft_update forms tau * online here.
        self._blend = np.empty_like(online.params)

    # Copies and pickles carry the two networks alone and join them
    # again, so the halves view the copy's own rows.
    def __getstate__(self) -> dict:
        return {"online": self.online, "target": self.target}

    def __setstate__(self, state: dict) -> None:
        self._join(state["online"], state["target"])


class ForwardCache:
    """What ``backward`` needs from one forward pass: the activation
    entering each layer (``inputs``), the post-activation network
    ``outputs``, the parameter ``version`` they came from, and the
    ``workspace`` written (None for a stack of rows) with the
    ``generation`` this pass gave it. A plain slotted class, since
    every forward builds one."""

    __slots__ = ("inputs", "outputs", "version", "workspace", "generation")

    def __init__(self, inputs, outputs, version, workspace, generation):
        self.inputs, self.outputs, self.version = inputs, outputs, version
        self.workspace, self.generation = workspace, generation


def forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a (rows, input_dim) matrix or a stack of
    single rows of shape (n, 1, input_dim).

    Returns a fresh output with matching rank plus the cache backward
    needs. A matrix goes through one matrix-matrix product per layer,
    whose rounding can differ in the last bits from evaluating its rows
    one at a time. A stack keeps the vector-matrix product of a single
    row, so each of its rows gives exactly the bits of a one-row matrix
    ``forward(net, row[None])``; ``backward`` does not accept its cache.

    A matrix forward writes its hidden activations into the online
    halves of the network's workspace for its row count (see
    :class:`Workspace`), which invalidates every earlier cache of that
    workspace, even when this forward raises. A stack writes no
    workspace.
    """
    a = np.asarray(x, dtype=np.float64)
    if not (a.ndim == 2 or (a.ndim == 3 and a.shape[1] == 1)) or a.shape[-1] != net.input_dim:
        raise ValueError(
            f"input must be a (rows, {net.input_dim}) matrix or an (n, 1, {net.input_dim}) "
            f"stack of rows, got shape {a.shape}"
        )
    if a.ndim == 2:
        ws = net.workspace(a.shape[0])
        ws.generation += 1
        hidden = ws.hidden
    else:
        ws = None
        hidden = [np.empty((a.shape[0], 1, n)) for n in net.layer_sizes[1:-1]]
    out = _layers(net, a, net.weights, net.biases, hidden)
    generation = 0 if ws is None else ws.generation
    return out, ForwardCache([a, *hidden], out, net.version, ws, generation)


def forward_pair(pair: NetworkPair, rows: int) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Evaluate ``pair.online`` and ``pair.target`` on the two halves of
    ``pair.online.workspace(rows).x``, which the caller fills in place
    (row 0 online, row 1 target), in one stacked pass.

    Each layer is one (2, rows, fan_in) @ (2, fan_in, fan_out) matmul,
    one bias add and one activation, with one finite check over both
    outputs; the hidden activations go into the workspace's
    ``pair_hidden``. Each slice of the matmul is the matrix product a
    matrix ``forward`` of one network runs, so the outputs have the bits
    of ``forward(pair.online, x[0])`` and ``forward(pair.target,
    x[1])``. Returns both fresh outputs and the online network's cache,
    which ``backward(pair.online, ...)`` accepts. Like a matrix forward
    through the online network, the pass bumps the workspace's
    generation, so it invalidates the workspace's earlier caches and a
    later matrix forward or pair pass invalidates its cache.
    """
    online = pair.online
    ws = online.workspace(rows)
    ws.generation += 1
    out = _layers(online, ws.x, pair.weights, pair.biases, ws.pair_hidden)
    cache = ForwardCache(ws.online_inputs, out[0], online.version, ws, ws.generation)
    return out[0], out[1], cache


def _layers(net: Mlp, a: np.ndarray, weights, biases, hidden: list[np.ndarray]) -> np.ndarray:
    """The matmul, bias add and activation of every layer of ``net``'s
    architecture, from ``a`` through ``weights`` and ``biases``, with
    hidden activations written into ``hidden``; returns the fresh
    output once it is checked finite."""
    # np.dot goes straight to BLAS on a 2-D product; a stack needs matmul.
    product = np.dot if a.ndim == 2 else np.matmul
    hidden_tanh = net.hidden_activation == "tanh"
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = product(a, w, out=hidden[i] if i < last else None)
        z += b
        if i < last:
            if hidden_tanh:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        elif net.output_activation == "tanh":
            np.tanh(z, out=z)
            z *= net.output_scale
        a = z
    # One reduce call, where .all() goes through a Python wrapper.
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NumericalError("network produced a non-finite output")
    return a


def backward(
    net: Mlp,
    cache: ForwardCache,
    output_grad: np.ndarray,
    *,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backpropagate ``output_grad`` (d loss / d output) through the
    cached forward pass.

    Returns the parameter gradient, a flat vector laid out like
    ``net.params``, and the loss gradient with respect to the forward
    input. Either is None, and not computed, when its flag is False.
    The input gradient is a fresh array. The parameter gradient is the
    workspace's: it stays valid until the next ``backward`` through this
    network with the same row count, so copy it to keep it longer.
    Raises IntegrityError when ``cache`` is not of this network's
    workspace for its row count, or when the parameters changed, or a
    later forward reused the workspace, since ``cache`` was made.
    """
    ws = cache.workspace
    if ws is None:
        raise ValueError(
            "backward needs the cache of a matrix forward, not of an "
            "(n, 1, input_dim) stack of rows"
        )
    if net._workspaces.get(len(cache.outputs)) is not ws:
        raise IntegrityError("forward cache is of another network's workspace")
    if cache.version != net.version:
        raise IntegrityError("forward cache does not match current parameters")
    if cache.generation != ws.generation:
        raise IntegrityError("forward cache was overwritten by a later forward")
    gy = np.asarray(output_grad, dtype=np.float64)
    if gy.shape != cache.outputs.shape:
        raise ValueError(
            f"output_grad shape {gy.shape} != output shape {cache.outputs.shape}"
        )
    hidden_tanh = net.hidden_activation == "tanh"
    last = len(net.weights) - 1
    delta = gy
    for i in range(last, -1, -1):
        temp = ws.temp[i]
        if i == last:
            if net.output_activation == "tanh":
                # delta * scale * (1 - tanh(z)**2), tanh(z) = outputs / scale
                np.divide(cache.outputs, net.output_scale, out=temp)
                np.square(temp, out=temp)
                np.subtract(1.0, temp, out=temp)
                delta = np.multiply(delta, net.output_scale, out=ws.delta[i])
                delta *= temp
        else:
            # delta is ws.delta[i] here, written by the layer above.
            a_out = cache.inputs[i + 1]
            if hidden_tanh:
                np.square(a_out, out=temp)
                np.subtract(1.0, temp, out=temp)
            else:
                np.greater(a_out, 0.0, out=temp)
            delta *= temp
        if param_grads:
            np.dot(cache.inputs[i].T, delta, out=ws.grad_weights[i])
            np.add.reduce(delta, axis=0, out=ws.grad_biases[i])
        if i > 0:
            delta = np.dot(delta, net.weights[i].T, out=ws.delta[i - 1])
        elif input_grad:
            delta = np.dot(delta, net.weights[0].T)
    return (ws.grad if param_grads else None), (delta if input_grad else None)


@dataclass
class AdamState:
    """First/second moment accumulators for one network, flat in the
    network's parameter layout."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    # Two preallocated vectors of the same size for the update's temporaries.
    work: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.work = (np.empty_like(self.m), np.empty_like(self.m))


def adam_init(net: Mlp, learning_rate: float) -> AdamState:
    if not learning_rate > 0.0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    return AdamState(
        learning_rate=float(learning_rate),
        m=np.zeros_like(net.params),
        v=np.zeros_like(net.params),
    )


# Every MOMENT_FLUSH_PERIOD-th Adam step zeroes the first moments whose
# magnitude is below MOMENT_FLOOR (see adam_step).
MOMENT_FLOOR = 1e-200
MOMENT_FLUSH_PERIOD = 100


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState) -> None:
    """Apply one Adam update in place and bump the parameter version.

    ``grad`` is a flat gradient laid out like ``net.params``; a
    non-finite entry raises NumericalError. The bias corrections are
    folded into the step size and epsilon (Kingma & Ba, end of section
    2): p -= lr_t * m / (sqrt(v) + eps_t) with
    lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_t = eps * sqrt(1 - beta2^t), which is the textbook update up to
    rounding, evaluated in that order over the whole vector.

    A dead relu unit gets zero gradients, and its first moments decay
    by beta1 every step. Left alone they would turn subnormal, and
    every later step would pay for the slow arithmetic. So every
    ``MOMENT_FLUSH_PERIOD``-th step zeroes each first moment below
    ``MOMENT_FLOOR`` in magnitude, after the moments are updated and
    before the parameters are. In the steps between two flushes a
    moment at the floor shrinks by at most beta1^100, which keeps it
    above the smallest normal double for any beta1 >= 0.1.

    Why the flush moves no parameter: the step of an entry is at most
    |m| * lr / ((1 - beta1^t) * eps) in magnitude, and 1 - beta1^t >=
    1 - beta1. With beta1 = 0.9, eps = 1e-8 and a learning rate of at
    most 1e-3, a moment below the floor makes a step below 1e-194,
    which changes only a parameter smaller than about 1e-178 in
    magnitude. The next moment, beta1 * m + (1 - beta1) * g, loses the
    flushed part only when |g| is below about 1e-183. The bound grows
    with the learning rate, so it covers the default configurations.
    """
    if grad.shape != net.params.shape:
        raise ValueError(f"gradient shape {grad.shape} != params shape {net.params.shape}")
    # A finite sum of squares means every entry is finite. Finite
    # entries can still overflow it, so only then does the scan decide.
    if not math.isfinite(grad.dot(grad)) and not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient passed to adam_step")
    state.step += 1
    t = state.step
    root2 = math.sqrt(1.0 - state.beta2**t)
    lr_t = state.learning_rate * root2 / (1.0 - state.beta1**t)
    m, v = state.m, state.v
    num, den = state.work
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=num)
    m += num
    if t % MOMENT_FLUSH_PERIOD == 0:
        m[np.abs(m, out=num) < MOMENT_FLOOR] = 0.0
    v *= state.beta2
    np.square(grad, out=num)
    num *= 1.0 - state.beta2
    v += num
    np.sqrt(v, out=den)
    den += state.epsilon * root2
    np.multiply(m, lr_t, out=num)
    num /= den
    net.params -= num
    net.version += 1


def hard_copy(pair: NetworkPair) -> None:
    """Copy the pair's online parameters over its target's."""
    pair.target.params[...] = pair.online.params
    pair.target.version += 1


def soft_update(pair: NetworkPair, tau: float) -> None:
    """Polyak blend target <- tau * online + (1 - tau) * target of the
    pair's networks, with ``tau * online`` formed in the pair's scratch
    vector."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    target = pair.target
    target.params *= 1.0 - tau
    target.params += np.multiply(pair.online.params, tau, out=pair._blend)
    target.version += 1


# Checkpoint format (one network section per net, text, round-trip
# exact via repr floats):
#   mlp-checkpoint-v1
#   meta <key> <value>
#   net <name>
#   layers <n0> <n1> ...
#   activation <hidden> <output> <output_scale>
#   W<i> <fan_in * fan_out floats, row-major>
#   b<i> <fan_out floats>
#   end

_MAGIC = "mlp-checkpoint-v1"
# Floats per piece of a W/b row, so a row's text is never held whole.
_CHUNK = 256


def save_checkpoint(path, nets: dict[str, Mlp], meta: dict[str, str] | None = None) -> None:
    """Write named networks plus flat string metadata to ``path``,
    atomically, formatting each row as it is written."""
    write_atomic(path, _checkpoint_pieces(nets, meta or {}), "ascii")


def _checkpoint_pieces(nets: dict[str, Mlp], meta: dict[str, str]):
    """The checkpoint text in pieces of at most a line or ``_CHUNK``
    floats; raises ValueError, part way, on a key or name that the
    format cannot hold."""
    yield _MAGIC + "\n"
    for key, value in meta.items():
        key, value = str(key), str(value)
        if " " in key or "\n" in key or "\n" in value:
            raise ValueError(f"metadata key/value must be single-line, got {key!r}")
        yield f"meta {key} {value}\n"
    for name, net in nets.items():
        if " " in name:
            raise ValueError(f"net name must not contain spaces: {name!r}")
        yield f"net {name}\n"
        yield "layers " + " ".join(str(n) for n in net.layer_sizes) + "\n"
        yield (
            f"activation {net.hidden_activation} {net.output_activation} "
            f"{net.output_scale!r}\n"
        )
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            yield from _float_row(f"W{i}", w)
            yield from _float_row(f"b{i}", b)
        yield "end\n"


def _float_row(label: str, a: np.ndarray):
    """The line ``label`` followed by the repr of each of ``a``'s floats,
    space separated, in pieces of ``_CHUNK`` floats."""
    flat = a.ravel()
    yield label
    for start in range(0, max(flat.size, 1), _CHUNK):
        yield " " + " ".join(map(repr, flat[start : start + _CHUNK].tolist()))
    yield "\n"


def load_checkpoint(path) -> tuple[dict[str, Mlp], dict[str, str]]:
    """Read a file written by :func:`save_checkpoint`; raises
    CheckpointError when the file does not have that structure."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.rstrip("\n") for line in fh]
        if not lines or lines[0] != _MAGIC:
            raise ValueError(f"not a {_MAGIC} file")
        return _parse_checkpoint(lines)
    except (IndexError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from None


def _parse_checkpoint(lines: list[str]) -> tuple[dict[str, Mlp], dict[str, str]]:
    meta: dict[str, str] = {}
    nets: dict[str, Mlp] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("meta "):
            _, key, value = line.split(" ", 2)
            meta[key] = value
            i += 1
            continue
        if not line.startswith("net "):
            raise ValueError(f"unexpected checkpoint line: {line!r}")
        name = line.split(" ", 1)[1]
        sizes = tuple(int(n) for n in lines[i + 1].split()[1:])
        act_parts = lines[i + 2].split()
        hidden, output, scale = act_parts[1], act_parts[2], float(act_parts[3])
        weights = []
        biases = []
        i += 3
        for j in range(len(sizes) - 1):
            # numpy parses a token exactly as float() does, and raises
            # ValueError on every token that float() rejects.
            w_vals = np.array(lines[i].split()[1:], dtype=np.float64)
            b_vals = np.array(lines[i + 1].split()[1:], dtype=np.float64)
            weights.append(w_vals.reshape(sizes[j], sizes[j + 1]))
            biases.append(b_vals)
            i += 2
        if lines[i] != "end":
            raise ValueError(f"missing 'end' after net {name!r}")
        i += 1
        nets[name] = Mlp(
            layer_sizes=sizes,
            hidden_activation=hidden,
            output_activation=output,
            output_scale=scale,
            weights=weights,
            biases=biases,
        )
    return nets, meta
