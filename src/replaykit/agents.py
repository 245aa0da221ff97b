"""Value-based (DQN) and actor-critic (DDPG) learners.

Every fact that differs between the two agent kinds lives on its
class, and :data:`AGENTS` maps a config's ``agent`` name to the class.
A class carries ``ACTIONS``, the action-space type it drives;
``BUFFER_CAPACITY``, its default replay capacity; ``POLICY_NET``, the
name of its policy network in ``networks()``, the dict a checkpoint
writes; and one constructor ``(actions, config, scaler, init_rng)``
whose input dim is ``scaler.dim``, so a goal-augmented scaler gives a
goal-augmented network. ``begin_episode()`` is called after every env
reset and ``act(obs, rng)`` owns exploration: DQN's epsilon is the
linear schedule at its own count of ``act`` calls, DDPG adds its own
Ornstein-Uhlenbeck noise, which ``begin_episode`` resets. Evaluation
never calls ``act``, so after training a DQN agent's ``acts`` equals
the run's env steps.

Both agents train on a replay :class:`~replaykit.replay.Batch`, whose
states already carry any goal and whose weights are the per-sample
loss weights; they return the TD errors they trained on (for priority
updates) and keep frozen target copies of their networks. Every
network and its target are one :class:`~replaykit.nn.NetworkPair`, so
an update evaluates both in one stacked ``forward_pair`` pass, and
target sync acts on the pair: DQN refreshes its target by
``hard_copy`` on a fixed period, DDPG blends both of its targets with
``soft_update`` and a small Polyak factor after every update. ``act``
forwards its observation as a one-row matrix, and evaluation as a stack
of rows, both through plain ``forward``. The two give the same bits,
but a one-row stack through ``greedy_policy`` cost more per call (best
of 5 x 20,000 calls, 2-vCPU Xeon, single-threaded OpenBLAS: a greedy
CartPole DQN act 15 against 16-17 us, a Pendulum DDPG act 22 against
27 us), so ``act`` keeps the matrix. Observations are scaled by a
fixed per-environment affine map before they reach any network.

Every network an agent builds has rectifier (relu) hidden layers, as in
both source algorithms (Mnih et al. 2015; Lillicrap et al. 2015, section
7); the activation is not a config key. A checkpoint stores each
network's activations, so one written with tanh hidden layers still
loads and evaluates as it was trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import BoxAction, DiscreteActions
from .errors import ConfigurationError, NumericalError
from .hindsight import augment_observation
from .nn import (
    Mlp,
    NetworkPair,
    adam_init,
    adam_step,
    backward,
    forward,
    forward_pair,
    hard_copy,
    init_mlp,
    soft_update,
)
from .replay import Batch

# Above this TD error magnitude training is considered diverged.
DIVERGENCE_LIMIT = 1e6


def check_divergence(td_errors: np.ndarray) -> None:
    """Raise NumericalError when any TD error is non-finite or beyond
    :data:`DIVERGENCE_LIMIT` in magnitude."""
    worst = float(np.maximum.reduce(np.abs(td_errors)))
    if not math.isfinite(worst) or worst > DIVERGENCE_LIMIT:
        raise NumericalError(f"TD error magnitude {worst:.3g} exceeds divergence limit")


class ObservationScaler:
    """Fixed affine map (obs - center) / halfwidth, the stand-in for
    batch normalization: no running statistics, so scaled values never
    depend on training history."""

    def __init__(self, center, halfwidth) -> None:
        self.center = np.asarray(center, dtype=np.float64)
        self.halfwidth = np.asarray(halfwidth, dtype=np.float64)
        if self.center.shape != self.halfwidth.shape or self.center.ndim != 1:
            raise ConfigurationError("center and halfwidth must be 1-D and equal shape")
        if np.any(self.halfwidth <= 0.0):
            raise ConfigurationError("halfwidth entries must be > 0")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def __call__(self, obs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The scaled observations, in ``out`` when given. The float64
        center makes the result float64 for any real ``obs``."""
        scaled = np.subtract(obs, self.center, out=out)
        scaled /= self.halfwidth
        return scaled


def scaler_for(env_spec, with_goal: bool = False) -> ObservationScaler:
    """Scaler over the observation, extended across the env's goal
    components when ``with_goal`` says they are appended."""
    center, halfwidth = env_spec.obs_center, env_spec.obs_halfwidth
    if with_goal:
        center, halfwidth = center + env_spec.goal_center, halfwidth + env_spec.goal_halfwidth
    return ObservationScaler(center, halfwidth)


def greedy_policy(
    net: Mlp,
    scaler: ObservationScaler,
    goal: np.ndarray | None,
    actions: DiscreteActions | BoxAction,
):
    """Exploration-free policy of a DQN Q-network or a DDPG actor over a
    stack of observations.

    The returned function maps an (n, obs_dim) array of raw observations
    to a list of n actions: ``augment_observation`` appends the goal, if
    any, to every row, the rows are scaled, and one ``forward`` call on
    them as an (n, 1, input_dim) stack of rows gives each the bits of a
    one-row call. A discrete action is the lowest index of the row's largest Q
    value; a continuous one is the actor's output clipped to the bounds.
    The network is read at call time, so a policy built once follows
    training. Raises ConfigurationError when ``net`` does not fit the
    scaled, goal-augmented observation or the action space.
    """
    discrete = isinstance(actions, DiscreteActions)
    n_out = actions.n if discrete else actions.dim
    if net.input_dim != scaler.dim or net.output_dim != n_out:
        raise ConfigurationError(
            f"policy network maps {net.input_dim} inputs to {net.output_dim} outputs; "
            f"the env needs {scaler.dim} inputs and {n_out} outputs"
        )

    def policy(observations: np.ndarray) -> list:
        x = augment_observation(observations, goal)
        out, _ = forward(net, scaler(x)[:, None, :])
        if discrete:
            return out[:, 0].argmax(axis=1).tolist()
        # Clip the fresh output in place: np.clip's bits on the finite
        # values forward guarantees, one (dim,) float64 row per episode.
        rows = out[:, 0]
        np.maximum(rows, actions.low, out=rows)
        np.minimum(rows, actions.high, out=rows)
        return list(rows)

    return policy


def epsilon_schedule(start: float, end: float, decay_steps: int, step: int) -> float:
    """Linear decay from start to end over decay_steps, then flat."""
    if end > start:
        raise ConfigurationError(f"epsilon end {end} must not exceed start {start}")
    if decay_steps < 1:
        raise ConfigurationError(f"decay_steps must be >= 1, got {decay_steps}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    fraction = min(step / decay_steps, 1.0)
    return start + (end - start) * fraction


def _td_targets(batch: Batch, gamma: float, next_values: np.ndarray) -> np.ndarray:
    """r + gamma * (1 - d) * next_values as one fresh array: the bits of
    that expression, with the product formed left to right and the
    reward added last."""
    targets = np.subtract(1.0, batch.dones)
    targets *= gamma
    targets *= next_values
    targets += batch.rewards
    return targets


def _squared_loss_grad(weights: np.ndarray, td_errors: np.ndarray) -> np.ndarray:
    """2 * w_i * delta_i / n, the gradient of mean_i w_i * delta_i^2 in
    delta_i, multiplied and divided in that order."""
    grad = 2.0 * weights
    grad *= td_errors
    grad /= td_errors.shape[0]
    return grad


def _check_learning_rate(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


def _check_hidden_sizes(sizes: tuple[int, ...]) -> None:
    if any(size < 1 for size in sizes):
        raise ConfigurationError(f"hidden_sizes must all be >= 1, got {sizes}")


@dataclass(frozen=True)
class DqnConfig:
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 10_000
    target_update_period: int = 500
    batch_size: int = 32
    learning_rate: float = 1e-3
    warmup: int = 1_000
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigurationError(
                "need 0 <= epsilon_end <= epsilon_start <= 1, got "
                f"{self.epsilon_end}, {self.epsilon_start}"
            )
        if self.epsilon_decay_steps < 1:
            raise ConfigurationError("epsilon_decay_steps must be >= 1")
        if self.target_update_period < 1:
            raise ConfigurationError("target_update_period must be >= 1")
        if self.batch_size < 1 or self.warmup < 1:
            raise ConfigurationError("batch_size and warmup must be >= 1")
        _check_learning_rate("learning_rate", self.learning_rate)
        _check_hidden_sizes(self.hidden_sizes)


class DqnAgent:
    """Q-learning over a dense relu network with a periodically frozen
    target copy.

    ``q`` and ``q_target`` are the online and target halves of one
    :class:`~replaykit.nn.NetworkPair`, so an update evaluates Q on the
    states and Q_target on the next states in one stacked pass. TD
    target: y = r for terminal transitions, else r + gamma * max_a'
    Q_target(s', a'). The returned TD errors are Q(s, a) - y under the
    parameters in force when the batch was drawn.
    """

    ACTIONS = DiscreteActions
    BUFFER_CAPACITY = 50_000
    POLICY_NET = "q"

    def __init__(
        self,
        actions: DiscreteActions,
        config: DqnConfig,
        scaler: ObservationScaler,
        init_rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.actions = actions
        self.scaler = scaler
        sizes = (scaler.dim, *config.hidden_sizes, actions.n)
        self.pair = NetworkPair(init_mlp(sizes, init_rng, hidden_activation="relu"))
        self.q, self.q_target = self.pair.online, self.pair.target
        self.adam = adam_init(self.q, config.learning_rate)
        self.updates = 0
        # The epsilon clock: act calls so far, across episodes.
        self.acts = 0
        # Reused by update for batches of one size: each row's offset in
        # the flattened (n, actions) Q block, and the loss gradient at
        # the Q-network's output.
        self._row_starts = np.arange(0)
        self._output_grad = np.zeros((0, actions.n))

    def networks(self) -> dict[str, Mlp]:
        """The networks a checkpoint holds, by name."""
        return {"q": self.q}

    def begin_episode(self) -> None:
        """Nothing to reset: the epsilon clock runs across episodes."""

    @property
    def epsilon(self) -> float:
        """The exploration rate of the next ``act`` call."""
        cfg = self.config
        return epsilon_schedule(
            cfg.epsilon_start, cfg.epsilon_end, cfg.epsilon_decay_steps, self.acts
        )

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> int:
        """Epsilon-greedy action; ties resolve to the lowest index."""
        epsilon = self.epsilon
        self.acts += 1
        if epsilon > 0.0 and rng.random() < epsilon:
            return int(rng.integers(self.actions.n))
        values, _ = forward(self.q, self.scaler(obs)[None])
        return int(values.argmax())

    def update(self, batch: Batch) -> np.ndarray:
        """One weighted TD regression step; returns per-sample TD errors.

        The batch's state block is scaled in one call straight into the
        pair's (2, n, input_dim) input ``q.workspace(n).x``, states into
        the online half and next states into the target half. The max
        over next actions is :func:`max_over_actions`."""
        n = len(batch)
        self.scaler(batch.state_block, out=self.q.workspace(n).x)
        q_all, next_q, cache = forward_pair(self.pair, n)
        targets = _td_targets(batch, self.config.gamma, max_over_actions(next_q))
        if self._row_starts.size != n:
            self._row_starts = np.arange(0, n * self.actions.n, self.actions.n)
            self._output_grad = np.zeros_like(q_all)
        output_grad = self._output_grad
        # Q(s_i, a_i) by flat index: one take and one put, where a 2-D
        # fancy index costs twice as much each way.
        taken = self._row_starts + batch.actions.astype(int)
        td_errors = q_all.take(taken) - targets
        check_divergence(td_errors)
        # d/dQ(s_i, a_i) of mean_i w_i * delta_i^2
        output_grad.fill(0.0)
        output_grad.put(taken, _squared_loss_grad(batch.weights, td_errors))
        grad, _ = backward(self.q, cache, output_grad, input_grad=False)
        adam_step(self.q, grad, self.adam)
        self.updates += 1
        if self.updates % self.config.target_update_period == 0:
            hard_copy(self.pair)
        return td_errors


def max_over_actions(q: np.ndarray) -> np.ndarray:
    """Each row's largest value of an (n, actions) array, as an
    elementwise ``np.maximum`` fold over the columns, left to right.

    It equals ``np.maximum.reduce(q, axis=1)`` in value, at a third of
    the cost on two or three columns, but may differ from it in the
    sign of a zero maximum. A TD target does not see that sign:
    ``r + gamma * (1 - d) * (+-0.0)`` is ``r`` for every reward other
    than -0.0, and no env pays -0.0."""
    best = q[:, 0]
    for k in range(1, q.shape[1]):
        best = np.maximum(best, q[:, k])
    return best


@dataclass(frozen=True)
class DdpgConfig:
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    warmup: int = 1_000
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    ou_mu: float = 0.0
    hidden_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigurationError(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size < 1 or self.warmup < 1:
            raise ConfigurationError("batch_size and warmup must be >= 1")
        ou = (self.ou_theta, self.ou_sigma, self.ou_mu)
        # The noise recurrence n <- (1 - theta) * n + ... is stable only
        # for 0 < theta < 2.
        stable = 0.0 < self.ou_theta < 2.0
        if not (all(map(math.isfinite, ou)) and stable and self.ou_sigma >= 0.0):
            raise ConfigurationError(
                f"need ou_theta in (0, 2), finite ou_sigma >= 0 and finite ou_mu; got {ou}"
            )
        _check_learning_rate("actor_lr", self.actor_lr)
        _check_learning_rate("critic_lr", self.critic_lr)
        _check_hidden_sizes(self.hidden_sizes)


class OUNoise:
    """Ornstein-Uhlenbeck exploration noise.

    Discrete recurrence n <- n + theta * (mu - n) + sigma * gaussian;
    the stationary standard deviation is approximately
    sigma / sqrt(2 * theta) for small theta.
    """

    def __init__(self, dim: int, theta: float, sigma: float, mu: float = 0.0) -> None:
        self.dim = dim
        self.theta = theta
        self.sigma = sigma
        self.mu = mu
        self.state = np.full(dim, mu, dtype=np.float64)

    def reset(self) -> None:
        self.state[:] = self.mu

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Advance the recurrence one step; returns a copy of the new
        state. Raises NumericalError when the state stops being finite,
        as a sigma near the largest double makes it.

        Each component runs on Python floats, with the operations of
        ``n += theta * (mu - n); n += sigma * g`` in that order, so the
        bits are those of the array formula; unlike numpy, Python
        floats overflow to inf without a warning."""
        theta, sigma, mu = self.theta, self.sigma, self.mu
        pairs = zip(self.state.tolist(), rng.standard_normal(self.dim).tolist())
        state = [n + theta * (mu - n) + sigma * g for n, g in pairs]
        self.state[:] = state
        if not all(map(math.isfinite, state)):
            raise NumericalError(f"OU noise state {self.state} is not finite")
        return self.state.copy()

    @staticmethod
    def stationary_std(theta: float, sigma: float) -> float:
        return sigma / math.sqrt(2.0 * theta)


class DdpgAgent:
    """Deterministic-policy actor-critic for continuous actions.

    Actor and critic have relu hidden layers; the actor's output is
    tanh scaled to the action bound. ``actor``/``actor_target`` and
    ``critic``/``critic_target`` are the halves of ``actor_pair`` and
    ``critic_pair``, built in that order; a pair's target is a copy,
    so the init draws are those of two plain networks. An update makes
    two stacked passes: the actor on the states and the target actor on
    the next states, then Q on
    (s, a) and Q_target on (s', a'). Critic training is a weighted TD
    regression; the actor then ascends the updated critic by chaining
    the critic's action-input gradient into its own backward pass. Both
    targets track the online networks by Polyak blending after every
    update.
    """

    ACTIONS = BoxAction
    BUFFER_CAPACITY = 100_000
    POLICY_NET = "actor"

    def __init__(
        self,
        actions: BoxAction,
        config: DdpgConfig,
        scaler: ObservationScaler,
        init_rng: np.random.Generator,
    ) -> None:
        if not (actions.high > 0.0 and actions.low == -actions.high):
            raise ConfigurationError(
                f"action bounds must be symmetric, got [{actions.low}, {actions.high}]"
            )
        self.config = config
        self.actions = actions
        self.scaler = scaler
        self.noise = OUNoise(actions.dim, config.ou_theta, config.ou_sigma, config.ou_mu)
        actor_sizes = (scaler.dim, *config.hidden_sizes, actions.dim)
        critic_sizes = (scaler.dim + actions.dim, *config.hidden_sizes, 1)
        self.actor_pair = NetworkPair(
            init_mlp(
                actor_sizes,
                init_rng,
                hidden_activation="relu",
                output_activation="tanh",
                output_scale=actions.high,
                final_layer_scale=1e-3,
            )
        )
        self.critic_pair = NetworkPair(init_mlp(critic_sizes, init_rng, hidden_activation="relu"))
        self.actor, self.actor_target = self.actor_pair.online, self.actor_pair.target
        self.critic, self.critic_target = self.critic_pair.online, self.critic_pair.target
        self.actor_adam = adam_init(self.actor, config.actor_lr)
        self.critic_adam = adam_init(self.critic, config.critic_lr)
        # Reused by actor updates for batches of one size: the gradient
        # of -mean(Q) at the critic's output.
        self._mean_q_grad = np.zeros((0, 1))

    def networks(self) -> dict[str, Mlp]:
        """The networks a checkpoint holds, by name."""
        return {"actor": self.actor, "critic": self.critic}

    def begin_episode(self) -> None:
        """Start the exploration noise of a new episode at ``mu``."""
        self.noise.reset()

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Actor output plus exploration noise, clipped to bounds."""
        action = forward(self.actor, self.scaler(obs)[None])[0][0]
        action += self.noise.sample(rng)
        # np.clip's bits on finite values, in place on the fresh output.
        np.maximum(action, self.actions.low, out=action)
        np.minimum(action, self.actions.high, out=action)
        return action

    def critic_update(self, batch: Batch) -> np.ndarray:
        """Weighted TD regression on the critic; returns TD errors.
        The two halves of ``critic.workspace(len(batch)).x`` hold the
        critic's scaled (s, a) and (s', actor_target(s')) rows of
        ``batch``; one stacked pass evaluates Q and Q_target on them."""
        q, next_q, cache = forward_pair(self.critic_pair, len(batch))
        targets = _td_targets(batch, self.config.gamma, next_q[:, 0])
        td_errors = q[:, 0] - targets
        check_divergence(td_errors)
        output_grad = _squared_loss_grad(batch.weights, td_errors)[:, None]
        grad, _ = backward(self.critic, cache, output_grad, input_grad=False)
        adam_step(self.critic, grad, self.critic_adam)
        return td_errors

    def actor_update(self, inputs: np.ndarray, actions: np.ndarray, actor_cache) -> None:
        """Ascend mean_i Q(s_i, actor(s_i)) through the critic, which
        stays frozen. ``actions`` are the actor's outputs on the scaled
        states in the state columns of ``inputs``, with ``actor_cache``
        their forward cache; they overwrite the action columns of
        ``inputs``."""
        n = len(inputs)
        inputs[:, self.scaler.dim :] = actions
        _, critic_cache = forward(self.critic, inputs)
        # Gradient of -mean(Q) w.r.t. the critic's inputs, action slice.
        if self._mean_q_grad.shape[0] != n:
            self._mean_q_grad = np.full((n, 1), -1.0 / n)
        _, d_input = backward(self.critic, critic_cache, self._mean_q_grad, param_grads=False)
        d_actions = d_input[:, -self.actions.dim :]
        grad, _ = backward(self.actor, actor_cache, d_actions, input_grad=False)
        adam_step(self.actor, grad, self.actor_adam)

    def sync_targets(self) -> None:
        soft_update(self.actor_pair, self.config.tau)
        soft_update(self.critic_pair, self.config.tau)

    def update(self, batch: Batch) -> np.ndarray:
        """Critic step, actor step, then target blend; returns the
        critic's TD errors.

        The batch's state block is scaled in one call straight into the
        actor pair's (2, n, dim) input ``actor.workspace(n).x``. The
        critic pair's input ``critic.workspace(n).x`` takes that scaled
        block in one copy, then the batch's actions and the target
        actor's actions as its two action columns. The actor step
        reuses the actor's cache from the stacked pass, which stays
        valid: the critic step changes no actor parameter. Its forward
        of the critic on the online half comes after the critic step has
        used the critic pair's cache.
        """
        n, dim = len(batch), self.scaler.dim
        actor_x = self.actor.workspace(n).x
        self.scaler(batch.state_block, out=actor_x)
        actions, next_actions, actor_cache = forward_pair(self.actor_pair, n)
        critic_x = self.critic.workspace(n).x
        critic_x[:, :, :dim] = actor_x
        critic_x[0, :, dim:], critic_x[1, :, dim:] = batch.actions, next_actions
        td_errors = self.critic_update(batch)
        self.actor_update(critic_x[0], actions, actor_cache)
        self.sync_targets()
        return td_errors


# Config ``agent`` name -> agent class; each name is also the RunConfig
# field holding that agent's hyperparameters.
AGENTS = {"dqn": DqnAgent, "ddpg": DdpgAgent}
