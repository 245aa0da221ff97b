"""Native classic-control environments: CartPole, MountainCar, Pendulum.

Each environment is a small stateful stepper over a pure dynamics
function, ``dynamics(state, action) -> (next_state, reward, done)``.
All randomness flows through the generator handed to ``reset``, so a
(seed, action sequence) pair fully determines a trajectory. ``done``
means task termination; hitting the step limit sets ``truncated``
instead, and both can be true on the same step. ``step`` returns a
``StepResult`` named tuple holding a copy of the new state, a Python
float reward and bool flags.

The dynamics unpack the state into Python floats once and do their
scalar arithmetic on them. These are IEEE doubles, like numpy float64
scalars, and the operations and their order are fixed, so every result
is bit-for-bit what the same formulas give on numpy scalars.

MountainCar and Pendulum are goal envs, after GoalEnv's
``compute_reward`` (Plappert et al., arXiv:1802.09464): each class
holds every goal fact of its task, namely the goal space on its
``EnvSpec`` and, as static methods, ``achieved_goal(state)``,
``native_goal(tolerance)`` and ``goal_reward(state, action,
next_state, goal, tolerance) -> (reward, success)``. Under the native
goal ``goal_reward`` gives the env's own step rewards, so rows that
hindsight relabels and the rows the env produced follow one reward
function; the one exception is a few ulps at MountainCar's flag (see
``MountainCar.native_goal``). On Pendulum, ``dynamics`` and
``goal_reward`` both score through one private float scorer, so a step
takes its angle once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class DiscreteActions:
    n: int


@dataclass(frozen=True)
class BoxAction:
    dim: int
    low: float
    high: float


@dataclass(frozen=True)
class EnvSpec:
    """Static facts a harness needs: shapes, limits, and the fixed
    affine observation scaling that stands in for batch normalization.

    ``solve_reward`` is the 100-episode evaluation mean at which the
    task counts as solved, or None when the task has no such threshold.

    A goal env has ``goal_dim`` goal components, appended to the
    observation under hindsight and scaled by ``goal_center`` /
    ``goal_halfwidth``, and ``goal_tolerance``, the default success
    tolerance. ``success_ends_episode`` says whether the task
    terminates on success, so a relabeled step is terminal exactly when
    it succeeds and this holds. ``goal_dim`` is 0 when the env has no
    goal space.
    """

    name: str
    obs_dim: int
    actions: DiscreteActions | BoxAction
    max_episode_steps: int
    solve_reward: float | None
    obs_center: tuple[float, ...]
    obs_halfwidth: tuple[float, ...]
    goal_center: tuple[float, ...] = ()
    goal_halfwidth: tuple[float, ...] = ()
    goal_tolerance: float | None = None
    success_ends_episode: bool = False

    @property
    def goal_dim(self) -> int:
        return len(self.goal_center)


class StepResult(NamedTuple):
    next_state: np.ndarray
    reward: float
    done: bool
    truncated: bool


def _check_discrete(action, n: int) -> int:
    if type(action) is int and 0 <= action < n:
        return action
    if isinstance(action, (bool, np.bool_)):
        raise ValueError(f"action must be an integer in [0, {n}), got {action!r}")
    if isinstance(action, (np.integer, int)):
        action = int(action)
    elif isinstance(action, float) and action.is_integer():
        action = int(action)
    else:
        raise ValueError(f"action must be an integer in [0, {n}), got {action!r}")
    if not 0 <= action < n:
        raise ValueError(f"action {action} out of range [0, {n})")
    return action


class Env:
    """A stateful stepper over the pure ``dynamics`` of its class, which
    also sets ``spec`` and draws the start state in ``start_state``."""

    spec: EnvSpec

    def __init__(self) -> None:
        self._state: np.ndarray | None = None
        self._elapsed = 0
        self._max_steps = self.spec.max_episode_steps

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._state = self.start_state(rng)
        self._elapsed = 0
        return self._state.copy()

    def step(self, action) -> StepResult:
        if self._state is None:
            raise RuntimeError("step before reset")
        next_state, reward, done = self.dynamics(self._state, action)
        self._state = next_state
        self._elapsed += 1
        return StepResult(next_state.copy(), reward, done, self._elapsed >= self._max_steps)


class CartPole(Env):
    """Pole balancing on a cart; push left or right each step.

    Euler integration at dt = 0.02 s. Reward is +1 every step; the
    episode ends when the cart leaves +-2.4 or the pole tips past 12
    degrees, and truncates at 200 steps.
    """

    GRAVITY = 9.8
    CART_MASS = 1.0
    POLE_MASS = 0.1
    TOTAL_MASS = CART_MASS + POLE_MASS
    HALF_POLE_LENGTH = 0.5
    POLE_MASS_LENGTH = POLE_MASS * HALF_POLE_LENGTH
    FORCE_MAG = 10.0
    DT = 0.02
    X_LIMIT = 2.4
    THETA_LIMIT = 12.0 * math.pi / 180.0

    spec = EnvSpec(
        name="cartpole",
        obs_dim=4,
        actions=DiscreteActions(2),
        max_episode_steps=200,
        solve_reward=200.0,
        obs_center=(0.0, 0.0, 0.0, 0.0),
        obs_halfwidth=(2.4, 3.0, 12.0 * math.pi / 180.0, 3.0),
    )

    @staticmethod
    def start_state(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.05, 0.05, size=4)

    @staticmethod
    def dynamics(state: np.ndarray, action: int) -> tuple[np.ndarray, float, bool]:
        action = _check_discrete(action, 2)
        x, x_dot, theta, theta_dot = state.tolist()
        force = CartPole.FORCE_MAG if action == 1 else -CartPole.FORCE_MAG
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        temp = (
            force + CartPole.POLE_MASS_LENGTH * theta_dot**2 * sin_t
        ) / CartPole.TOTAL_MASS
        theta_acc = (CartPole.GRAVITY * sin_t - cos_t * temp) / (
            CartPole.HALF_POLE_LENGTH
            * (4.0 / 3.0 - CartPole.POLE_MASS * cos_t**2 / CartPole.TOTAL_MASS)
        )
        x_acc = temp - CartPole.POLE_MASS_LENGTH * theta_acc * cos_t / CartPole.TOTAL_MASS
        # Semi-explicit Euler: positions advance with the old velocities.
        x = x + CartPole.DT * x_dot
        x_dot = x_dot + CartPole.DT * x_acc
        theta = theta + CartPole.DT * theta_dot
        theta_dot = theta_dot + CartPole.DT * theta_acc
        done = abs(x) > CartPole.X_LIMIT or abs(theta) > CartPole.THETA_LIMIT
        return np.array([x, x_dot, theta, theta_dot]), 1.0, done


class MountainCar(Env):
    """Underpowered car in a valley; throttle left, coast, or right.

    Reward is -1 per step until the car reaches position >= 0.5, where
    the episode terminates with reward 0. Truncates at 200 steps.

    The goal is a position, scored on the state a step arrives at:
    success means the arrival position lies within the tolerance of the
    goal, with reward 0, else -1.
    """

    FORCE = 0.001
    GRAVITY = 0.0025
    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.5

    spec = EnvSpec(
        name="mountaincar",
        obs_dim=2,
        actions=DiscreteActions(3),
        max_episode_steps=200,
        solve_reward=-110.0,
        obs_center=(-0.3, 0.0),
        obs_halfwidth=(0.9, 0.07),
        goal_center=(-0.3,),
        goal_halfwidth=(0.9,),
        goal_tolerance=0.05,
        success_ends_episode=True,
    )

    @staticmethod
    def start_state(rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(-0.6, -0.4), 0.0])

    @staticmethod
    def dynamics(state: np.ndarray, action: int) -> tuple[np.ndarray, float, bool]:
        action = _check_discrete(action, 3)
        position, velocity = state.tolist()
        velocity += (action - 1) * MountainCar.FORCE + math.cos(3 * position) * (
            -MountainCar.GRAVITY
        )
        velocity = min(max(velocity, -MountainCar.MAX_SPEED), MountainCar.MAX_SPEED)
        position += velocity
        position = min(max(position, MountainCar.MIN_POSITION), MountainCar.MAX_POSITION)
        if position == MountainCar.MIN_POSITION and velocity < 0.0:
            velocity = 0.0  # inelastic left wall
        done = position >= MountainCar.GOAL_POSITION
        reward = 0.0 if done else -1.0
        return np.array([position, velocity]), reward, done

    @staticmethod
    def achieved_goal(state: np.ndarray) -> np.ndarray:
        return np.array([float(state[0])])

    @staticmethod
    def native_goal(tolerance: float) -> np.ndarray:
        """The goal whose success band is the flag's success set, up to
        rounding at the flag.

        The task succeeds on [GOAL_POSITION, MAX_POSITION]. A band of
        ``tolerance`` centered one tolerance past the flag starts at the
        flag and, positions being capped at the wall, covers that set
        once it reaches the wall, i.e. for tolerances of at least 0.05.
        A smaller band would score flag positions past it as failures,
        so it raises ConfigurationError.

        The band's edge at the flag is not exact in floating point. At
        the default tolerance 0.05 the center is 0.55000000000000004,
        so ``goal_reward`` at position exactly 0.5 computes
        abs(0.5 - center) = 0.050000000000000044 > 0.05 and scores -1
        where the env pays 0 and ends; at other tolerances a position
        just short of the flag scores a success. For 1,523 of the 2,000
        tolerances in np.linspace(0.05, 1, 2000), 0.05 among them, no
        center within 4,096 ulps of 0.5 + tolerance scores all of
        [0.5, 0.6] a success and nextafter(0.5, -inf) a failure, so
        only a different success test can make the band exact.
        """
        center = MountainCar.GOAL_POSITION + tolerance
        if not abs(MountainCar.MAX_POSITION - center) <= tolerance:
            raise ConfigurationError(
                f"goal_tolerance {tolerance!r} is below mountaincar's floor of "
                f"0.05: the native goal must score every position in "
                f"[{MountainCar.GOAL_POSITION}, {MountainCar.MAX_POSITION}] a success"
            )
        return np.array([center])

    @staticmethod
    def goal_reward(state, action, next_state, goal, tolerance) -> tuple[float, bool]:
        success = abs(float(next_state[0]) - float(goal[0])) <= tolerance
        return (0.0 if success else -1.0), success


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


class Pendulum(Env):
    """Torque-controlled pendulum swing-up with the angle observed as
    (cos, sin) so the state space has no seam at +-pi.

    Reward is -(theta^2 + 0.1 * theta_dt^2 + 0.001 * torque^2) with
    theta wrapped into (-pi, pi] and measured from upright; the cost is
    charged on the state the torque is applied in. Episodes never
    terminate and truncate at 200 steps.

    The goal is an angle, and ``goal_reward`` is that cost with theta
    measured from the goal instead of upright, so the native goal is 0.
    Success means the angle error is within the tolerance; it is
    charged on the same state as the cost.
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0
    NATIVE_GOAL = (0.0,)  # upright

    spec = EnvSpec(
        name="pendulum",
        obs_dim=3,
        actions=BoxAction(dim=1, low=-2.0, high=2.0),
        max_episode_steps=200,
        solve_reward=None,
        obs_center=(0.0, 0.0, 0.0),
        obs_halfwidth=(1.0, 1.0, 8.0),
        goal_center=(0.0,),
        goal_halfwidth=(math.pi,),
        goal_tolerance=0.1,
    )

    @staticmethod
    def observation(theta: float, theta_dot: float) -> np.ndarray:
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    @staticmethod
    def start_state(rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(-math.pi, math.pi)
        theta_dot = rng.uniform(-1.0, 1.0)
        return Pendulum.observation(theta, theta_dot)

    @staticmethod
    def dynamics(state: np.ndarray, action) -> tuple[np.ndarray, float, bool]:
        # An exact float64 (1,) array, as the agents and the eval policy
        # pass, goes straight to the finite check.
        if not (type(action) is np.ndarray and action.dtype == np.float64 and action.shape == (1,)):
            action = np.asarray(action, dtype=np.float64).reshape(-1)
            if action.shape != (1,):
                raise ValueError(f"action must be a single torque, got shape {action.shape}")
        torque = float(action[0])
        if not math.isfinite(torque):
            raise ValueError(f"action must be finite, got {action[0]!r}")
        torque = min(max(torque, -Pendulum.MAX_TORQUE), Pendulum.MAX_TORQUE)
        cos_t, sin_t, theta_dot = state.tolist()
        theta = math.atan2(sin_t, cos_t)
        reward, _ = Pendulum._score(
            theta, theta_dot, torque, Pendulum.NATIVE_GOAL[0], Pendulum.spec.goal_tolerance
        )
        g, m, length, dt = (
            Pendulum.GRAVITY,
            Pendulum.MASS,
            Pendulum.LENGTH,
            Pendulum.DT,
        )
        theta_acc = 3.0 * g / (2.0 * length) * math.sin(theta) + 3.0 / (
            m * length**2
        ) * torque
        theta_dot = theta_dot + theta_acc * dt
        theta_dot = min(max(theta_dot, -Pendulum.MAX_SPEED), Pendulum.MAX_SPEED)
        theta = theta + theta_dot * dt
        return Pendulum.observation(theta, theta_dot), reward, False

    @staticmethod
    def achieved_goal(state: np.ndarray) -> np.ndarray:
        return np.array([math.atan2(float(state[1]), float(state[0]))])

    @staticmethod
    def native_goal(tolerance: float) -> np.ndarray:
        return np.array(Pendulum.NATIVE_GOAL)

    @staticmethod
    def goal_reward(state, action, next_state, goal, tolerance) -> tuple[float, bool]:
        torque = min(max(float(action[0]), -Pendulum.MAX_TORQUE), Pendulum.MAX_TORQUE)
        theta = math.atan2(state[1], state[0])
        return Pendulum._score(theta, float(state[2]), torque, float(goal[0]), tolerance)

    @staticmethod
    def _score(theta, theta_dot, torque, goal, tolerance) -> tuple[float, bool]:
        """The cost of acting with a clipped ``torque`` at angle
        ``theta`` and speed ``theta_dot``, with the angle measured from
        ``goal``, and whether that angle error is within ``tolerance``.
        All arguments are floats; every Pendulum reward comes from here."""
        delta = wrap_angle(theta - goal)
        reward = -(delta**2 + 0.1 * theta_dot**2 + 0.001 * torque**2)
        return reward, abs(delta) <= tolerance


_REGISTRY = {cls.spec.name: cls for cls in (CartPole, MountainCar, Pendulum)}


def env_names() -> list[str]:
    return sorted(_REGISTRY)


def env_class(name: str) -> type[Env]:
    """The environment class registered under ``name``; raises
    ConfigurationError on any other name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown environment {name!r}; choose from {env_names()}"
        ) from None


def make_env(name: str) -> Env:
    """Instantiate an environment by name."""
    return env_class(name)()


def env_spec(name: str) -> EnvSpec:
    return env_class(name).spec
