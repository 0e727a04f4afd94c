"""Synthetic SkyServer web traffic (paper §7, Figure 5).

The paper reports the first seven months of operation (June 2001 to
February 2002): about 2.5 million hits, a million page views, seventy
thousand sessions, 4% Japanese and 3% German sub-web traffic, 8% of
page views to the education projects, roughly 30% of traffic from
crawlers, about five "hacker attacks" per day, two network outages
(22 June and 26 July), a 20x spike from a TV show on 2 October, peaks
around conference demonstrations and classroom use, 14 reboots and
99.83% uptime.

The generator below is parameterised by exactly those published
aggregates and produces a per-request log; the analyzer in
:mod:`repro.traffic.analyze` recomputes the aggregates from the log, so
the Figure 5 benchmark is a real measurement of the analysis code, not
an echo of the input parameters.
"""

from __future__ import annotations

import datetime as _dt
import math
import random
from dataclasses import dataclass, field
from typing import Optional

#: Operating period covered by the paper's Figure 5.
DEFAULT_START = _dt.date(2001, 6, 1)
DEFAULT_END = _dt.date(2002, 2, 28)

#: Page categories the site serves.
PAGE_CATEGORIES = ("home", "famous_places", "navigation", "object_explorer",
                   "sql_query", "education", "documentation", "download")

#: Sub-webs (language branches).
SUBWEBS = ("en", "jp", "de")


@dataclass
class TrafficModelConfig:
    """Knobs of the synthetic traffic model, calibrated to §7."""

    start: _dt.date = DEFAULT_START
    end: _dt.date = DEFAULT_END
    sessions_total: int = 70000
    pages_per_session: float = 14.0
    hits_per_page: float = 2.5
    crawler_hit_fraction: float = 0.30
    japanese_fraction: float = 0.04
    german_fraction: float = 0.03
    education_fraction: float = 0.08
    hacker_attempts_per_day: float = 5.0
    growth_factor: float = 3.0           # traffic grows over the period
    weekday_boost: float = 1.25
    outage_dates: tuple[_dt.date, ...] = (_dt.date(2001, 6, 22), _dt.date(2001, 7, 26))
    tv_show_date: _dt.date = _dt.date(2001, 10, 2)
    tv_show_boost: float = 20.0
    conference_dates: tuple[_dt.date, ...] = (_dt.date(2002, 1, 8),)
    conference_boost: float = 4.0
    reboots: int = 14
    reboot_software: int = 8              # 5-minute patch outages
    reboot_power: int = 5                 # multi-hour power/operations outages
    seed: int = 2001


@dataclass
class Session:
    """One user (or crawler) session."""

    session_id: int
    date: _dt.date
    subweb: str
    is_crawler: bool
    pages: int
    hits: int
    education_pages: int


@dataclass
class LogRecord:
    """One aggregated per-day log line per traffic class (keeps logs compact)."""

    date: _dt.date
    sessions: int
    page_views: int
    hits: int
    crawler_hits: int
    education_page_views: int
    japanese_page_views: int
    german_page_views: int
    hacker_attempts: int
    uptime_fraction: float


@dataclass
class WebLog:
    """The synthetic log: per-session records plus per-day operational records."""

    config: TrafficModelConfig
    sessions: list[Session] = field(default_factory=list)
    daily: list[LogRecord] = field(default_factory=list)


def _day_weight(config: TrafficModelConfig, day: _dt.date) -> float:
    """Relative traffic level of one day (growth, weekday cycle, events, outages)."""
    total_days = (config.end - config.start).days or 1
    position = (day - config.start).days / total_days
    weight = 1.0 + (config.growth_factor - 1.0) * position
    if day.weekday() < 5:
        weight *= config.weekday_boost
    if day == config.tv_show_date:
        weight *= config.tv_show_boost
    if day in config.conference_dates:
        weight *= config.conference_boost
    if day in config.outage_dates:
        weight *= 0.15
    return weight


def generate_weblog(config: Optional[TrafficModelConfig] = None) -> WebLog:
    """Generate the synthetic seven-month log."""
    config = config or TrafficModelConfig()
    rng = random.Random(config.seed)
    log = WebLog(config=config)

    days = [config.start + _dt.timedelta(days=offset)
            for offset in range((config.end - config.start).days + 1)]
    weights = [_day_weight(config, day) for day in days]
    total_weight = sum(weights)

    # Pick which days suffer the reboots (beyond the two network outages).
    reboot_days = set(rng.sample(range(len(days)), min(config.reboots, len(days))))
    software_reboots = set(list(reboot_days)[:config.reboot_software])

    session_id = 0
    for day_index, (day, weight) in enumerate(zip(days, weights)):
        expected_sessions = config.sessions_total * weight / total_weight
        day_sessions = max(0, int(rng.gauss(expected_sessions, math.sqrt(expected_sessions + 1))))
        day_records: list[Session] = []
        for _ in range(day_sessions):
            session_id += 1
            is_crawler = rng.random() < _crawler_session_fraction(config)
            roll = rng.random()
            if roll < config.japanese_fraction:
                subweb = "jp"
            elif roll < config.japanese_fraction + config.german_fraction:
                subweb = "de"
            else:
                subweb = "en"
            pages = max(1, int(rng.expovariate(1.0 / config.pages_per_session)))
            if is_crawler:
                pages = max(5, int(pages * 2.5))
            hits = max(pages, int(pages * rng.gauss(config.hits_per_page, 0.5)))
            education_pages = sum(1 for _ in range(pages)
                                  if rng.random() < config.education_fraction)
            day_records.append(Session(session_id, day, subweb, is_crawler,
                                       pages, hits, education_pages))
        log.sessions.extend(day_records)

        uptime = 1.0
        if day_index in reboot_days:
            uptime = 1.0 - (5.0 / (24 * 60) if day_index in software_reboots
                            else rng.uniform(2.0, 5.0) / 24.0)
        if day in config.outage_dates:
            uptime = min(uptime, 1.0 - rng.uniform(4.0, 8.0) / 24.0)
        log.daily.append(LogRecord(
            date=day,
            sessions=len(day_records),
            page_views=sum(s.pages for s in day_records),
            hits=sum(s.hits for s in day_records),
            crawler_hits=sum(s.hits for s in day_records if s.is_crawler),
            education_page_views=sum(s.education_pages for s in day_records),
            japanese_page_views=sum(s.pages for s in day_records if s.subweb == "jp"),
            german_page_views=sum(s.pages for s in day_records if s.subweb == "de"),
            hacker_attempts=max(0, int(rng.gauss(config.hacker_attempts_per_day, 2.0))),
            uptime_fraction=uptime,
        ))
    return log


def _crawler_session_fraction(config: TrafficModelConfig) -> float:
    """Session-level crawler probability that yields the configured hit fraction.

    Crawler sessions generate ≈2.5x the pages of human sessions, so the
    session fraction is lower than the hit fraction.
    """
    boost = 2.5
    hit_fraction = config.crawler_hit_fraction
    return hit_fraction / (boost + hit_fraction * (1.0 - boost))
