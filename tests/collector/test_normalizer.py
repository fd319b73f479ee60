"""Tests for name/timestamp normalization."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.collector import normalizer
from repro.collector.normalizer import (
    MEMO_ENTRIES,
    DeviceRegistry,
    NormalizationError,
    epoch_to_text,
    normalize_interface_name,
    normalize_router_name,
    parse_timestamp,
)


class TestRouterNames:
    def test_strips_domain_and_lowercases(self):
        assert normalize_router_name("NYC-PER1.ispnet.example") == "nyc-per1"

    def test_alias_applied(self):
        assert normalize_router_name("lo-192", {"lo-192": "nyc-per1"}) == "nyc-per1"

    def test_empty_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_router_name("   ")

    def test_plain_name_passthrough(self):
        assert normalize_router_name("chi-cr2") == "chi-cr2"


class TestInterfaceNames:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Serial1/0", "se1/0"),
            ("GigabitEthernet0/2", "gi0/2"),
            ("TenGigabitEthernet3/0", "te3/0"),
            ("se1/0", "se1/0"),
            ("POS2/1", "pos2/1"),
            ("Loopback0", "lo0"),
        ],
    )
    def test_long_forms_shortened(self, raw, expected):
        assert normalize_interface_name(raw) == expected

    def test_garbage_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_interface_name("???")

    def test_missing_numbering_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_interface_name("Serial")


class TestTimestamps:
    def test_utc_datetime(self):
        epoch = parse_timestamp("2010-01-05 12:00:00", "UTC")
        assert epoch_to_text(epoch) == "2010-01-05 12:00:00"

    def test_eastern_offset_applied(self):
        utc = parse_timestamp("2010-01-05 12:00:00", "UTC")
        eastern = parse_timestamp("2010-01-05 07:00:00", "US/Eastern")
        assert utc == eastern

    def test_pacific_vs_eastern_three_hours(self):
        eastern = parse_timestamp("2010-01-05 09:00:00", "US/Eastern")
        pacific = parse_timestamp("2010-01-05 06:00:00", "US/Pacific")
        assert eastern == pacific

    def test_syslog_style_gets_default_year(self):
        epoch = parse_timestamp("Jan  5 12:00:00", "UTC", default_year=2010)
        assert epoch_to_text(epoch) == "2010-01-05 12:00:00"

    def test_epoch_passthrough(self):
        assert parse_timestamp("1262692800.5") == 1262692800.5

    def test_iso_t_separator(self):
        assert parse_timestamp("2010-01-05T12:00:00", "UTC") == parse_timestamp(
            "2010-01-05 12:00:00", "UTC"
        )

    def test_garbage_rejected(self):
        with pytest.raises(NormalizationError):
            parse_timestamp("yesterday-ish")

    def test_unknown_zone_rejected(self):
        with pytest.raises(NormalizationError):
            parse_timestamp("2010-01-05 12:00:00", "Mars/OlympusMons")


class TestDeviceRegistry:
    def test_timezone_lookup(self):
        registry = DeviceRegistry()
        registry.register_device("NYC-PER1", "US/Eastern")
        assert registry.timezone_of("nyc-per1.ispnet.example") == "US/Eastern"

    def test_unknown_device_defaults_utc(self):
        assert DeviceRegistry().timezone_of("ghost") == "UTC"

    def test_alias_resolution_in_timestamp_parse(self):
        registry = DeviceRegistry()
        registry.register_device("nyc-per1", "US/Eastern")
        registry.register_alias("edge-tag-7", "nyc-per1")
        local = registry.parse_device_timestamp("2010-01-05 07:00:00", "edge-tag-7")
        assert local == parse_timestamp("2010-01-05 12:00:00", "UTC")


# ---------------------------------------------------------------------------
# closed-form timestamps == the general strptime path


def general(raw, zone, year=2010):
    """The oracle: the strptime loop, bypassing the closed form."""
    return normalizer._parse_general(raw, raw.strip(), zone, year)


def outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:  # NormalizationError is one
        return type(exc), str(exc)


ZONES = sorted(normalizer._FIXED_OFFSETS) + ["Mars/OlympusMons"]
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

#: how a number may be spelled in a stamp: mostly zero-padded as the
#: feeds do, else space-padded, bare, or in full-width digits
#: (strptime's ``\\d`` takes those)
ZERO_PADDED = "{:02d}".format
spellings = st.sampled_from(
    [ZERO_PADDED] * 9
    + [
        "{:2d}".format,
        str,
        lambda n: ZERO_PADDED(n).translate(FULL_WIDTH),
    ]
)
padding = st.sampled_from(["", "", "", " ", "\t", "  ", "\n"])
# mostly real days, around both 2010 US transitions and month ends ...
real_days = st.sampled_from(
    [(1, 5), (3, 13), (3, 14), (3, 15), (11, 6), (11, 7), (11, 8), (2, 28), (12, 31)]
)
# ... plus impossible ones
days = st.one_of(
    real_days, real_days, real_days,
    st.sampled_from([(2, 29), (2, 30), (1, 0), (13, 1), (6, 32)]),
)
real_clock = st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59))
clock = st.one_of(
    real_clock, real_clock, real_clock,
    st.tuples(st.integers(0, 25), st.sampled_from([0, 59, 60, 61]),
              st.sampled_from([0, 59, 60, 61])),
)
MONTHS = ["", "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
          "Oct", "Nov", "Dec", "Foo"]


@st.composite
def stamps(draw):
    (month, day), (hour, minute, second) = draw(days), draw(clock)
    tidy = draw(st.booleans())  # every field spelled as the feeds spell it
    spell = [ZERO_PADDED if tidy else draw(spellings) for _ in range(5)]
    time_part = f"{spell[2](hour)}:{spell[3](minute)}:{spell[4](second)}"
    if draw(st.booleans()):
        year = draw(st.sampled_from([1900, 1970, 2010, 2012]))
        separator = draw(st.sampled_from([" ", " ", "T", "T", "  ", "\t"]))
        body = f"{year}-{spell[0](month)}-{spell[1](day)}{separator}{time_part}"
    else:
        name = draw(st.sampled_from([str, str, str.upper, str.lower]))(MONTHS[month])
        # devices space-pad the day ("Jan  5"); some zero-pad it
        spell_day = draw(st.sampled_from(["{:2d}".format, spell[1]]))
        gap = draw(st.sampled_from([" ", " ", " ", "  "]))
        body = f"{name}{gap}{spell_day(day)} {time_part}"
    return draw(padding) + body + draw(padding)


class TestClosedFormTimestamps:
    @settings(max_examples=1500, deadline=None)
    @given(
        raw=stamps(),
        zone=st.sampled_from(ZONES),
        year=st.sampled_from([2010, 2012, 1900]),
    )
    @example(raw="2010-03-14 02:30:00", zone="US/Eastern", year=2010)  # gap
    @example(raw="2010-11-07 01:30:00", zone="US/Eastern", year=2010)  # fold
    @example(raw="Mar 14 02:30:00", zone="US/Pacific", year=2010)
    @example(raw="Nov  7 01:30:00", zone="US/Central", year=2010)
    @example(raw="Feb 30 10:00:00", zone="UTC", year=2010)
    @example(raw="2010-01-05 24:00:00", zone="UTC", year=2010)
    @example(raw="2010-01-05 23:59:60", zone="GMT", year=2010)
    @example(raw="2010-01-05T12:00:00", zone="US/Mountain", year=2010)
    @example(raw="2010-01-05 １２:00:00", zone="UTC", year=2010)
    @example(raw="２０１０-01-05 12:00:00", zone="US/Eastern", year=2010)
    @example(raw="  Jan  5 10:22:01\n", zone="US/Eastern", year=2010)
    @example(raw="Jan 05 10:22:01", zone="US/Eastern", year=2012)
    @example(raw="2010-11-5 T10:00:00", zone="UTC", year=2010)
    @example(raw="1900-01-05 10:00:00", zone="UTC", year=2012)
    def test_closed_form_equals_general_path(self, raw, zone, year):
        assert outcome(parse_timestamp, raw, zone, year) == outcome(
            general, raw, zone, year
        )

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.text(alphabet="0123456789-: TJanFeb\t", min_size=13, max_size=21),
        zone=st.sampled_from(ZONES),
    )
    def test_arbitrary_text_of_the_right_width_agrees_too(self, raw, zone):
        assert outcome(parse_timestamp, raw, zone) == outcome(general, raw, zone)

    def test_a_known_day_needs_no_strptime(self, monkeypatch):
        parse_timestamp("2010-01-05 00:00:01", "US/Eastern")  # fills the day
        parse_timestamp("Jan  5 00:00:01", "US/Eastern")

        def forbidden(*args):
            raise AssertionError("general path taken")

        monkeypatch.setattr(normalizer, "_parse_local", forbidden)
        assert parse_timestamp("2010-01-05 07:00:00", "US/Eastern") == 1262692800.0
        assert parse_timestamp("Jan  5 07:00:00", "US/Eastern") == 1262692800.0

    def test_transition_days_stay_on_the_general_path(self):
        # 2010-03-14 has 23 local hours in US/Eastern, 2010-11-07 has 25
        before = parse_timestamp("2010-03-14 01:59:59", "US/Eastern")
        after = parse_timestamp("2010-03-14 03:00:00", "US/Eastern")
        assert after - before == 1.0
        early = parse_timestamp("2010-11-07 00:30:00", "US/Eastern")
        late = parse_timestamp("2010-11-07 02:30:00", "US/Eastern")
        assert late - early == 3 * 3600.0


class TestMemosStayBounded:
    """100k distinct keys each: no memo outgrows MEMO_ENTRIES, and each
    still answers correctly after being flooded."""

    FLOOD = 100_000

    def test_midnight_table(self):
        for n in range(self.FLOOD):  # 100k distinct, valid days
            year, rest = divmod(n, 12 * 28)
            month, day = divmod(rest, 28)
            parse_timestamp(f"{1000 + year}-{month + 1:02d}-{day + 1:02d} 00:00:00")
            assert len(normalizer._MIDNIGHTS) <= MEMO_ENTRIES
        assert parse_timestamp("2010-01-05 12:00:00") == 1262692800.0

    def test_interface_table(self):
        for n in range(self.FLOOD):
            assert normalize_interface_name(f"Serial{n}/0") == f"se{n}/0"
        assert normalize_interface_name.cache_info().currsize <= MEMO_ENTRIES

    def test_canonical_name_table(self):
        registry = DeviceRegistry()
        registry.register_alias("edge-tag-7", "nyc-per1")
        for n in range(self.FLOOD):
            assert registry.canonical_name(f"R{n}.example") == f"r{n}"
            assert len(registry._canonical) <= MEMO_ENTRIES
        assert registry.canonical_name("EDGE-TAG-7") == "nyc-per1"


class TestCanonicalNameMemo:
    def test_alias_registered_later_takes_effect(self):
        registry = DeviceRegistry()
        assert registry.canonical_name("lo-192") == "lo-192"  # memoised
        registry.register_alias("lo-192", "nyc-per1")
        assert registry.canonical_name("lo-192") == "nyc-per1"
        assert registry.canonical_name("LO-192.example") == "nyc-per1"

    def test_one_string_per_device(self):
        registry = DeviceRegistry()
        first = registry.canonical_name("NYC-PER1.ispnet.example")
        assert registry.canonical_name("nyc-per1") is first

    def test_empty_name_rejected_every_time(self):
        registry = DeviceRegistry()
        for _ in range(2):
            with pytest.raises(NormalizationError):
                registry.canonical_name("   ")
