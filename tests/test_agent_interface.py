"""Contract of the agent interface, over every registered agent and the
envs it can drive: the harness, checkpoints and config validation reach
an agent only through ``AGENTS`` and the facts on its class."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import replaykit.harness as harness
from replaykit.agents import AGENTS, greedy_policy, scaler_for
from replaykit.config import RunConfig, validate_config
from replaykit.envs import BoxAction, env_names, env_spec
from replaykit.errors import ConfigurationError
from replaykit.nn import Mlp, NetworkPair, load_checkpoint

FITS = [
    (agent, env, hindsight)
    for agent, cls in AGENTS.items()
    for env in env_names()
    if isinstance(env_spec(env).actions, cls.ACTIONS)
    for hindsight in (False, True)
    if not hindsight or env_spec(env).goal_dim > 0
]
MISFITS = [
    (agent, env)
    for agent, cls in AGENTS.items()
    for env in env_names()
    if not isinstance(env_spec(env).actions, cls.ACTIONS)
]


def tiny_config(agent: str, env: str, hindsight: bool) -> RunConfig:
    """One short episode with one evaluation; the agent's own
    hyperparameter group, found by its registry name, is shrunk."""
    base = RunConfig(env=env, agent=agent, hindsight=hindsight, episodes=1,
                     eval_interval=1, eval_episodes=1, buffer_capacity=64)
    group = replace(getattr(base, agent), warmup=16, batch_size=4, hidden_sizes=(8,))
    return replace(base, **{agent: group})


def spy_on_greedy_policy(monkeypatch) -> list:
    """Record the network and scaler of every policy the harness builds."""
    seen = []

    def spy(net, scaler, goal, actions):
        seen.append((net, scaler))
        return greedy_policy(net, scaler, goal, actions)

    monkeypatch.setattr(harness, "greedy_policy", spy)
    return seen


def test_every_agent_drives_an_env_and_misfits_exist() -> None:
    assert {agent for agent, _, _ in FITS} == set(AGENTS)
    assert {agent for agent, _ in MISFITS} == set(AGENTS)


@pytest.mark.parametrize("agent, env, hindsight", FITS)
def test_build_run_uses_the_registry_class_and_its_config_group(agent, env, hindsight) -> None:
    cfg = tiny_config(agent, env, hindsight)
    exp = harness.build_run(cfg)
    assert type(exp.agent) is AGENTS[agent]
    assert exp.agent.config is getattr(cfg, agent)
    assert exp.agent.actions == env_spec(env).actions
    default = replace(cfg, buffer_capacity=None)
    assert default.resolved_buffer_capacity() == AGENTS[agent].BUFFER_CAPACITY


@pytest.mark.parametrize("agent, env, hindsight", FITS)
def test_train_evaluates_the_policy_net(monkeypatch, agent, env, hindsight) -> None:
    exp = harness.build_run(tiny_config(agent, env, hindsight))
    seen = spy_on_greedy_policy(monkeypatch)
    records = harness.train(exp)
    assert len(records) == 1 and np.isfinite(records[0].eval_mean)
    net = exp.agent.networks()[exp.agent.POLICY_NET]
    assert len(seen) == 1
    assert seen[0][0] is net and seen[0][1] is exp.agent.scaler
    assert net.input_dim == exp.agent.scaler.dim == scaler_for(env_spec(env), hindsight).dim


@pytest.mark.parametrize("agent, env, hindsight", FITS)
def test_checkpoint_holds_exactly_the_networks(tmp_path, agent, env, hindsight) -> None:
    exp = harness.build_run(tiny_config(agent, env, hindsight))
    path = tmp_path / "checkpoint.txt"
    harness.save_run_checkpoint(path, exp)
    nets, meta = load_checkpoint(path)
    expected = exp.agent.networks()
    assert list(nets) == list(expected)
    for name, net in expected.items():
        assert nets[name].layer_sizes == net.layer_sizes
        assert np.array_equal(nets[name].params, net.params)
    assert meta["agent"] == agent


@pytest.mark.parametrize("agent, env, hindsight", FITS)
def test_evaluate_checkpoint_rebuilds_the_policy_net(monkeypatch, tmp_path, agent, env,
                                                     hindsight) -> None:
    exp = harness.build_run(tiny_config(agent, env, hindsight))
    path = tmp_path / "checkpoint.txt"
    harness.save_run_checkpoint(path, exp)
    seen = spy_on_greedy_policy(monkeypatch)
    harness.evaluate_checkpoint(path, 1)
    net = exp.agent.networks()[exp.agent.POLICY_NET]
    assert len(seen) == 1
    assert seen[0][0].layer_sizes == net.layer_sizes
    assert np.array_equal(seen[0][0].params, net.params)


@pytest.mark.parametrize("agent, env", MISFITS)
def test_validate_config_rejects_every_misfit_naming_both(agent, env) -> None:
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(RunConfig(env=env, agent=agent))
    message = str(excinfo.value)
    assert f"agent '{agent}'" in message and f"env '{env}'" in message


@pytest.mark.parametrize("agent, env, hindsight", FITS)
def test_agents_build_relu_hidden_layers(agent, env, hindsight) -> None:
    """Every network an agent builds, targets included, has rectifier
    hidden layers; a continuous policy keeps a tanh output scaled to
    the action bound."""
    exp = harness.build_run(tiny_config(agent, env, hindsight))
    nets = [value for value in vars(exp.agent).values() if isinstance(value, Mlp)]
    assert {id(net) for net in exp.agent.networks().values()} <= {id(net) for net in nets}
    assert len(nets) == 2 * len(exp.agent.networks())  # each with its target
    assert all(net.hidden_activation == "relu" for net in nets)
    policy = exp.agent.networks()[exp.agent.POLICY_NET]
    actions = env_spec(env).actions
    if isinstance(actions, BoxAction):
        assert (policy.output_activation, policy.output_scale) == ("tanh", actions.high)
    else:
        assert policy.output_activation == "identity"


@pytest.mark.parametrize("agent, env, hindsight", FITS)
def test_every_network_and_its_target_are_one_pair(agent, env, hindsight) -> None:
    """Each network a checkpoint holds is the online half of a
    NetworkPair the agent holds, and each other network attribute is
    that pair's target, viewing row 1 of the pair's parameters."""
    exp = harness.build_run(tiny_config(agent, env, hindsight))
    held = list(vars(exp.agent).values())
    pair_of = {id(pair.online): pair for pair in held if isinstance(pair, NetworkPair)}
    networks = list(exp.agent.networks().values())
    assert sorted(pair_of) == sorted(map(id, networks))
    targets = [net for net in held if isinstance(net, Mlp) and id(net) not in pair_of]
    assert len(targets) == len(networks)
    for net in networks:
        pair = pair_of[id(net)]
        assert any(target is pair.target for target in targets)
        assert np.shares_memory(net.params, pair.params[0])
        assert np.shares_memory(pair.target.params, pair.params[1])
