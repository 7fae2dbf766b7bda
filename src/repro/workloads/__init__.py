"""Benchmark workloads: scalable XMark- and DBLP-like document
generators plus the paper's query set (Q1, Q2 of Sections 2.4/4 and
Q3–Q6 of Table 8)."""

from repro.workloads.xmark import XMarkConfig, generate_xmark
from repro.workloads.dblp import DBLPConfig, generate_dblp
from repro.workloads.corpus import CorpusConfig, dblp_corpus, xmark_corpus
from repro.workloads.queries import PAPER_QUERIES, PaperQuery
from repro.workloads.soak import (
    DEFAULT_TENANTS,
    STORM_TENANTS,
    SoakConfig,
    TenantProfile,
    format_soak_report,
    run_soak,
)
from repro.workloads.tpox import TPOX_QUERIES, TPoXConfig, generate_tpox
from repro.workloads.xmark_queries import XMARK_QUERIES

__all__ = [
    "CorpusConfig",
    "DBLPConfig",
    "DEFAULT_TENANTS",
    "PAPER_QUERIES",
    "PaperQuery",
    "STORM_TENANTS",
    "SoakConfig",
    "TPOX_QUERIES",
    "TPoXConfig",
    "TenantProfile",
    "XMARK_QUERIES",
    "XMarkConfig",
    "dblp_corpus",
    "format_soak_report",
    "generate_dblp",
    "generate_tpox",
    "generate_xmark",
    "run_soak",
    "xmark_corpus",
]
