"""Benchmark generators: determinism, validity, fixed constructions."""

import pytest

from fairchk import UsageError, generate_objects, parse_model, serialize_model

from conftest import F2_TEXT


class TestFamilies:
    def test_random_graph_valid_and_deterministic(self):
        model_a, pairs_a = generate_objects("random", n=16, m=40, k=2, seed=7)
        model_b, pairs_b = generate_objects("random", n=16, m=40, k=2, seed=7)
        assert (model_a, pairs_a) == (model_b, pairs_b)
        assert parse_model(serialize_model(model_a)) == model_a
        assert model_a.n == 16 and model_a.m == 40
        pairs_a.validate(model_a.n)

    def test_different_seeds_differ(self):
        a, _ = generate_objects("random", n=16, m=40, seed=1)
        b, _ = generate_objects("random", n=16, m=40, seed=2)
        assert a != b

    def test_chain_of_cycles_reproduces_the_two_cycle_chain(self):
        model, _ = generate_objects("chain-of-cycles", cycles=2, cycle_size=2)
        assert model == parse_model(F2_TEXT)

    def test_mdp_random_fraction_floor(self):
        model, _ = generate_objects("mdp-random", n=4, m=8, random_fraction=0.5)
        assert len(model.random_vertices) == 2
        model, _ = generate_objects("mdp-random", n=5, m=10, random_fraction=0.5)
        assert len(model.random_vertices) == 2

    def test_grid_is_valid(self):
        model, _ = generate_objects("grid", n=9)
        model.validate()
        assert model.n == 9

    def test_infeasible_edge_count(self):
        with pytest.raises(UsageError):
            generate_objects("random", n=5, m=3)
        with pytest.raises(UsageError):
            generate_objects("random", n=2, m=10)

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            generate_objects("hypercube", n=4)

    def test_generated_models_validate(self):
        for seed in range(30):
            for family in ("random", "mdp-random", "chain-of-cycles", "grid"):
                model, pairs = generate_objects(
                    family, n=12, m=30, k=3, random_fraction=0.2, seed=seed
                )
                model.validate()
                pairs.validate(model.n)
