import pytest
from hypothesis import given
from hypothesis import strategies as st

from psiprime import (
    AbelianGroup,
    NotationError,
    enumerate_abelian_groups,
    format_group,
    parse_group,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Z4xZ3^2", {2: [2], 3: [1, 1]}),
        ("[4,3,3]", {2: [2], 3: [1, 1]}),
        ("Z2^4xZ3", {2: [1, 1, 1, 1], 3: [1]}),
        ("[4, 6]", {2: [2, 1], 3: [1]}),
        ("z12", {2: [2], 3: [1]}),
        ("[]", {}),
        ("1", {}),
    ],
)
def test_parse_group(text, expected):
    G = parse_group(text)
    assert {p: list(q.parts) for p, q in G.components} == expected


def test_equivalent_spellings_parse_identically():
    assert parse_group("Z4xZ3^2") == parse_group("[4,3,3]")
    assert parse_group("Z12") == parse_group("[12]") == parse_group("Z4xZ3")
    assert parse_group("Z2xZ6") == parse_group("[2,2,3]")


@pytest.mark.parametrize(
    "bad, position",
    [
        ("", 0),
        ("Q8", 0),
        ("Z", 1),
        ("Z4^", 3),
        ("Z4xQ8", 3),
        ("Z4*Z3", 2),
        ("Z1", 1),
        ("[4,3", 4),
        ("[4,,3]", 3),
        ("[0]", 1),
    ],
)
def test_parse_errors_carry_position(bad, position):
    with pytest.raises(NotationError) as exc:
        parse_group(bad)
    assert exc.value.position == position
    assert f"position {position}" in str(exc.value)


def test_a_zero_repeat_count_is_refused():
    with pytest.raises(NotationError, match="position 3: exponent must be >= 1"):
        parse_group("Z2^0")


def test_format_group_examples():
    assert format_group(parse_group("[4,3,3]")) == "Z4xZ3^2"
    assert format_group(parse_group("[2,2,2,2,3]")) == "Z2^4xZ3"
    assert format_group(AbelianGroup(())) == "1"
    assert format_group(parse_group("[8,8,2]")) == "Z8^2xZ2"


def test_format_group_matches_the_loop_reference():
    from oracles import format_group_loop

    extra = [parse_group(t) for t in ("Z2^17", "Z8^2xZ2xZ9^3", "[99991,99991]")]
    for m in range(1, 2001):
        for G in enumerate_abelian_groups(m):
            assert format_group(G) == format_group_loop(G)
    for G in extra:
        assert format_group(G) == format_group_loop(G)


def test_format_parse_round_trip():
    for m in list(range(1, 80)) + [360, 1024]:
        for G in enumerate_abelian_groups(m):
            assert parse_group(format_group(G)) == G
            assert parse_group(str(G.cyclic_factors()).replace(" ", "")) == G


def test_spectrum_json_shape():
    from psiprime import order_spectrum, spectrum_to_json_dict

    blob = spectrum_to_json_dict(order_spectrum(parse_group("Z4xZ9")))
    assert blob["order"] == "36"
    assert blob["spectrum"]["36"] == "12"
    assert all(isinstance(v, str) for v in blob["spectrum"].values())


@given(st.lists(st.sampled_from([2, 3, 4, 5, 8, 9, 25, 27, 49]), max_size=5))
def test_multiplicative_form_round_trips(factors):
    from psiprime import canonicalize

    G = canonicalize(factors)
    assert parse_group(format_group(G)) == G


def test_rank_cap_is_checked_before_repeats_expand(monkeypatch):
    from psiprime import SizeLimitError, notation
    from psiprime.notation import RANK_CAP

    assert parse_group(f"Z2^{RANK_CAP}").components[0][1].parts == (1,) * RANK_CAP
    refusal = f"^rank = {{}} exceeds the rank cap {RANK_CAP}$"
    with pytest.raises(SizeLimitError, match=refusal.format(10000000000)):
        parse_group("Z2^10000000000")
    with pytest.raises(SizeLimitError, match=refusal.format(RANK_CAP + 1)):
        parse_group(f"Z3xZ2^{RANK_CAP}")
    with pytest.raises(SizeLimitError, match=refusal.format(RANK_CAP + 1)):
        parse_group("[" + ",".join(["2"] * (RANK_CAP + 1)) + "]")

    # a list is counted before any of its entries is converted, so a long
    # one is refused at once, naming its full length
    def never(digits):
        raise AssertionError(f"_order({digits!r}) ran")

    monkeypatch.setattr(notation, "_order", never)
    with pytest.raises(SizeLimitError, match=refusal.format(10**6)):
        parse_group("[" + ",".join(["2"] * 10**6) + "]")


LONG_RUN = "1" * 5000


@pytest.mark.parametrize(
    "text, message",
    [
        (f"Z{LONG_RUN}", "a 5000-digit cyclic order exceeds the factorization cap"),
        (f"[{LONG_RUN}]", "a 5000-digit cyclic order exceeds the factorization cap"),
        (f"[2,{LONG_RUN}]", "a 5000-digit cyclic order exceeds the factorization cap"),
        (f"Z2^{LONG_RUN}", "a 5000-digit repeat count exceeds the rank cap 4096"),
        ("Z" + "1" * 14, "a 14-digit cyclic order exceeds the factorization cap"),
    ],
    ids=["cyclic-order", "list-entry", "second-list-entry", "repeat-count", "14-digits"],
)
def test_long_digit_runs_are_refused_before_conversion(text, message):
    from psiprime import SizeLimitError

    with pytest.raises(SizeLimitError, match=message):
        parse_group(text)


def test_digit_runs_at_the_cap_width_still_convert():
    from psiprime import SizeLimitError

    # 13 digits is as wide as the factorization cap: converted, then refused
    # with the number itself in the message
    with pytest.raises(
        SizeLimitError,
        match="^cyclic order = 9999999999999 exceeds the factorization cap 1000000000000$",
    ):
        parse_group("Z9999999999999")
    with pytest.raises(SizeLimitError, match="^rank = 9999999999999 exceeds the rank cap 4096$"):
        parse_group("Z2^9999999999999")


def test_leading_zeros_do_not_count_as_digits():
    zeros = "0" * 20
    assert parse_group(f"Z{zeros}2^{zeros}3") == parse_group("Z2^3")
    assert parse_group(f"[{zeros}4, {zeros}3]") == parse_group("Z4xZ3")


def test_non_ascii_digit_characters_are_notation_errors():
    # "²".isdigit() is True but int("²") raises a bare ValueError
    with pytest.raises(NotationError, match="position 1"):
        parse_group("[²]")


@pytest.mark.parametrize(
    "bad, position",
    [("Z٣", 1), ("Z２", 1), ("Z2^٢", 3), ("[٣,٤]", 1)],
    ids=["arabic-indic-order", "fullwidth-order", "arabic-indic-repeat", "arabic-indic-list"],
)
def test_only_ascii_digits_spell_a_number(capsys, bad, position):
    # int() reads these digits as 3, 2, 2 and 3, 4, so the notation did too
    from psiprime.cli import main

    with pytest.raises(NotationError) as exc:
        parse_group(bad)
    assert exc.value.position == position
    assert main(["compute", bad, "--psi"]) == 1
    assert f"position {position}" in capsys.readouterr().err
