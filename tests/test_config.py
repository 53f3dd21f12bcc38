"""key = value config text parsing, formatting, and dataclass coercion."""

import dataclasses

import pytest

from hiloseg.config import (
    coerce_value,
    config_text,
    config_values,
    format_kv,
    parse_kv_text,
    read_config,
    with_values,
)
from hiloseg.data_io import SynthConfig
from hiloseg.errors import FormatError
from hiloseg.sampling import SamplerConfig


class TestParse:
    def test_basic_lines(self):
        kv = parse_kv_text("a = 1\nb.c = hello world\n")
        assert kv == {"a": "1", "b.c": "hello world"}

    def test_comments_and_blanks_skipped(self):
        kv = parse_kv_text("# header\n\n  # indented comment\nx = 2\n")
        assert kv == {"x": "2"}

    def test_value_may_contain_equals(self):
        assert parse_kv_text("formula = a=b+c") == {"formula": "a=b+c"}

    def test_whitespace_stripped(self):
        assert parse_kv_text("  key   =   spaced value  ") == {"key": "spaced value"}

    def test_missing_equals_reports_source_and_line(self):
        with pytest.raises(FormatError, match=r"run\.cfg:3"):
            parse_kv_text("a = 1\nb = 2\nnot a pair\n", source="run.cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(FormatError, match=r"<config>:1"):
            parse_kv_text("= 5")

    def test_later_keys_win(self):
        assert parse_kv_text("a = 1\na = 2") == {"a": "2"}


class TestFormat:
    def test_round_trip(self):
        kv = {"a": "1", "nested.key": "text value"}
        assert parse_kv_text(format_kv(kv)) == kv

    def test_tuple_and_bool_rendering(self):
        text = format_kv({"dims": (4, 5, 6), "flag": True, "off": False})
        assert "dims = 4,5,6" in text
        assert "flag = true" in text and "off = false" in text

    def test_empty_mapping(self):
        assert format_kv({}) == ""


class TestCoercion:
    def test_int_float_str(self):
        assert coerce_value("42", 0) == 42
        assert coerce_value("2.5", 0.0) == 2.5
        assert coerce_value("plain", "") == "plain"

    def test_bool_synonyms(self):
        for text in ("1", "true", "yes", "on", "TRUE"):
            assert coerce_value(text, False) is True
        for text in ("0", "false", "no", "off"):
            assert coerce_value(text, True) is False
        with pytest.raises(FormatError):
            coerce_value("maybe", False)

    def test_bool_checked_before_int(self):
        # bool is an int subclass; the default's exact type must win
        assert coerce_value("1", False) is True
        assert coerce_value("1", 0) == 1 and coerce_value("1", 0) is not True

    def test_tuple_elements_follow_default_element_type(self):
        assert coerce_value("1,2,3", (0, 0)) == (1, 2, 3)
        assert coerce_value("0.5, 1.5", (0.0,)) == (0.5, 1.5)

    def test_tuple_tolerates_spaces_and_trailing_comma(self):
        assert coerce_value(" 4 , 5 , 6 , ", (0,)) == (4, 5, 6)


class TestDataclassBridge:
    def test_round_trip_sampler(self):
        cfg = SamplerConfig(n_train_coords=512, shape_fraction=0.25, redraw_scope="any")
        kv = parse_kv_text(config_text(cfg))
        assert "n_train_coords" in kv
        assert read_config(SamplerConfig(), kv) == cfg

    def test_round_trip_through_text(self):
        cfg = SynthConfig(dims=(24, 16, 20), noise=0.02, seed=5)
        text = config_text(cfg)
        assert "dims = 24,16,20" in text.splitlines()
        assert read_config(SynthConfig(), parse_kv_text(text)) == cfg

    def test_absent_keys_keep_defaults(self):
        cfg = read_config(SamplerConfig(), {"n_train_coords": "64"})
        assert cfg.n_train_coords == 64
        assert cfg.shape_fraction == SamplerConfig().shape_fraction

    def test_unknown_keys_refused(self):
        # a key that names no field is a mistake, not a setting to skip
        with pytest.raises(FormatError, match=r"other\.thing, sampler\.n_hilo_coords$"):
            read_config(SamplerConfig(), {"n_hilo_coords": "9", "sampler.n_hilo_coords": "9",
                                          "other.thing": "5"})

    def test_bad_value_reports_key(self):
        with pytest.raises(FormatError, match="n_train_coords"):
            read_config(SamplerConfig(), {"n_train_coords": "lots"})

    def test_dataclass_validation_still_applies(self):
        with pytest.raises(ValueError):
            read_config(SamplerConfig(), {"shape_fraction": "1.5"})


@dataclasses.dataclass(frozen=True)
class Deep:
    y: float = 0.5


@dataclasses.dataclass(frozen=True)
class Inner:
    x: int = 1
    deep: Deep = Deep()


@dataclasses.dataclass(frozen=True)
class Outer:
    flag: bool = False
    inner: Inner = Inner()
    dims: tuple = (1, 2)


class TestNestedKeys:
    def test_nested_fields_are_keyed_by_part(self):
        assert config_values(Outer(), "top.") == {
            "top.flag": False, "inner.x": 1, "inner.deep.y": 0.5, "top.dims": (1, 2),
        }
        assert config_values(Inner()) == {"x": 1, "deep.y": 0.5}

    def test_with_values_sets_by_key(self):
        cfg = with_values(Outer(), {"top.flag": True, "inner.deep.y": 2.0}, "top.")
        assert cfg == Outer(flag=True, inner=Inner(deep=Deep(y=2.0)))

    def test_text_round_trip(self):
        cfg = Outer(flag=True, inner=Inner(x=7, deep=Deep(y=0.25)), dims=(3, 4))
        text = config_text(cfg, "top.")
        assert text == "top.flag = true\ninner.x = 7\ninner.deep.y = 0.25\ntop.dims = 3,4\n"
        assert read_config(Outer(), parse_kv_text(text), "top.") == cfg

    @pytest.mark.parametrize("key", ["inner.z", "flag", "inner", "deep.y", "top.inner.x"])
    def test_key_outside_the_listing_is_refused(self, key):
        with pytest.raises(FormatError, match=rf"unknown Outer keys: {key.replace('.', '[.]')}$"):
            read_config(Outer(), {key: "1"}, "top.")

    def test_bad_nested_value_reports_key(self):
        with pytest.raises(FormatError, match=r"inner\.deep\.y"):
            read_config(Outer(), {"inner.deep.y": "half"})
