"""The oracles themselves: determinism, clean passes, armed defects."""

import math

import pytest

from repro.fuzz import ORACLES, execute_params, generate_cases, result_digest
from repro.fuzz.oracles import (
    DEFECT_ENV,
    DEFECT_N_THRESHOLD,
    DEFECT_SYMBOLS_THRESHOLD,
)


# Zero corruption keeps every frame weight-valid, so the decode-parity
# comparison (where the injected defect lives) runs on row 0.
DEFECT_PARAMS = {"n": DEFECT_N_THRESHOLD, "k": 4,
                 "n_symbols": DEFECT_SYMBOLS_THRESHOLD,
                 "p_off": 0.0, "p_on": 0.0, "rngseed": 3}


class TestDeterminism:
    @pytest.mark.parametrize("oracle", sorted(set(ORACLES) - {"journal"}))
    def test_repeat_executions_are_bit_identical(self, oracle):
        case = next(c for c in generate_cases(2, 60, oracles=(oracle,)))
        first = execute_params(oracle, case.params)
        second = execute_params(oracle, case.params)
        assert first.as_dict() == second.as_dict()
        assert result_digest(oracle, case.params, first) == \
            result_digest(oracle, case.params, second)

    def test_digest_depends_on_params(self):
        a, b = generate_cases(0, 20, oracles=("design",))[:2]
        ra = execute_params("design", a.params)
        rb = execute_params("design", b.params)
        assert result_digest("design", a.params, ra) != \
            result_digest("design", b.params, rb)


class TestCleanTree:
    """A healthy tree passes every oracle on a seeded sample."""

    @pytest.mark.parametrize("oracle", ["codec", "roundtrip", "design",
                                        "serve"])
    def test_cheap_oracles_pass(self, oracle):
        for case in generate_cases(4, 6, oracles=(oracle,)):
            result = execute_params(oracle, case.params)
            assert result.status == "ok", (case.params, result.detail)

    def test_journal_oracle_passes(self):
        case = generate_cases(4, 1, oracles=("journal",))[0]
        result = execute_params("journal", case.params)
        assert result.status == "ok", (case.params, result.detail)


class TestSpatialIndexMutation:
    """The ``journal`` oracle catches an index that disagrees with the
    brute-force scan, even though both of its runs share the defect."""

    def test_within_dropping_a_lit_luminaire_fails(self, monkeypatch):
        from repro.net import LuminaireIndex, default_network
        from repro.phy import LinkGeometry

        sim = default_network()
        optics, drop = sim.channel.optics, sim.drop_m
        within = LuminaireIndex.within

        def lossy(self, position):
            found = within(self, position)
            lit = [i for i, lum in enumerate(found)
                   if optics.channel_gain(LinkGeometry.from_offsets(
                       math.hypot(position[0] - lum.x_m,
                                  position[1] - lum.y_m), drop)) > 0.0]
            if lit:
                del found[lit[-1]]
            return found

        monkeypatch.setattr(LuminaireIndex, "within", lossy)
        case = generate_cases(4, 1, oracles=("journal",))[0]
        result = execute_params("journal", case.params)
        assert result.status == "fail"
        assert result.detail.startswith(
            "spatial-index exactness: within() at (")

    def test_nearest_returning_the_farthest_fails(self, monkeypatch):
        from repro.net import LuminaireIndex

        def farthest(self, position):
            return max(self.luminaires, key=lambda lum: math.hypot(
                position[0] - lum.x_m, position[1] - lum.y_m))

        monkeypatch.setattr(LuminaireIndex, "nearest", farthest)
        case = generate_cases(4, 1, oracles=("journal",))[0]
        result = execute_params("journal", case.params)
        assert result.status == "fail"
        assert result.detail.startswith(
            "spatial-index exactness: nearest() at (")


class TestCodecMutation:
    """The ``codec`` oracle checks the production codec against the
    combinadic order, so a codec that is off by one rank fails it."""

    PARAMS = {"n": 16, "k": 5, "n_symbols": 40, "p_off": 0.01,
              "p_on": 0.01, "rngseed": 9}

    def test_clean_codec_passes(self):
        result = execute_params("codec", self.PARAMS)
        assert result.status == "ok", result.detail

    def test_encoder_off_by_one_rank_fails(self, monkeypatch):
        from repro.core import coding
        from repro.core.combinatorics import symbol_capacity

        encode = coding.encode_symbol

        def shifted(value, n, k):
            return encode((value + 1) % symbol_capacity(n, k), n, k)

        monkeypatch.setattr(coding, "encode_symbol", shifted)
        result = execute_params("codec", self.PARAMS)
        assert result.status == "fail"
        assert result.detail.startswith("encode order: ")

    def test_decoder_off_by_one_on_weight_k_words_fails(self, monkeypatch):
        from repro.core import coding

        decode = coding.decode_symbol
        monkeypatch.setattr(coding, "decode_symbol",
                            lambda slots, k: decode(slots, k) + 1)
        result = execute_params("codec", self.PARAMS)
        assert result.status == "fail"
        assert result.detail.startswith("decode parity: ")


class TestShrinkCandidates:
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_candidates_are_valid_reductions(self, oracle):
        case = generate_cases(6, 40, oracles=(oracle,))[0]
        candidates = list(ORACLES[oracle].shrink_candidates(case.params))
        assert candidates, "every oracle must offer reductions"
        for candidate in candidates[:8]:
            assert candidate != case.params
            result = execute_params(oracle, candidate)
            assert result.status in ("ok", "fail")


class TestInjectedDefect:
    def test_misdecode_fires_at_the_thresholds(self, monkeypatch):
        monkeypatch.setenv(DEFECT_ENV, "codec-misdecode")
        result = execute_params("codec", DEFECT_PARAMS)
        assert result.status == "fail"
        assert "decode parity" in result.detail

    @pytest.mark.parametrize("field, value", [
        ("n", DEFECT_N_THRESHOLD - 1),
        ("n_symbols", DEFECT_SYMBOLS_THRESHOLD - 1),
    ])
    def test_misdecode_silent_below_either_threshold(self, monkeypatch,
                                                     field, value):
        monkeypatch.setenv(DEFECT_ENV, "codec-misdecode")
        params = {**DEFECT_PARAMS, field: value}
        assert execute_params("codec", params).status == "ok"

    def test_disarmed_by_default(self):
        assert execute_params("codec", DEFECT_PARAMS).status == "ok"


class TestScenarioOracle:
    """The scenario-engine differential: tiny buildings, full contract."""

    def test_generated_cases_execute_clean(self):
        for case in generate_cases(11, 3, oracles=("scenario",)):
            result = execute_params("scenario", case.params)
            assert result.status == "ok", (case.params, result.detail)
            assert result.observation["rooms"] >= 1

    def test_a_sharded_case_executes_clean(self):
        case = next(
            c for c in generate_cases(2, 40, oracles=("scenario",))
            if sum(r["rows"] * r["cols"]
                   for r in c.params["scenario"]["rooms"]) >= 2)
        params = {**case.params, "regions": 2}
        result = execute_params("scenario", params)
        assert result.status == "ok", (params, result.detail)
        assert "sharded_digest" in result.observation

    def test_params_carry_a_loadable_document(self):
        from repro.scenarios import Scenario

        case = generate_cases(5, 1, oracles=("scenario",))[0]
        scenario = Scenario.from_dict(case.params["scenario"])
        assert scenario.to_dict() == case.params["scenario"]


class TestErrorPaths:
    def test_unknown_oracle(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            execute_params("bogus", {})

    def test_empty_serve_request_list_is_a_fail_result(self):
        result = execute_params("serve", {"requests": []})
        assert result.status == "fail"

    def test_unexpected_exception_propagates(self):
        """Broken params raise: the runner journals them as errors."""
        with pytest.raises(Exception):
            execute_params("codec", {"n": "wat"})
