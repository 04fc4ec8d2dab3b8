"""Diversity-Aware Top-k Publish/Subscribe for Text Streams.

Reproduction of Chen & Cong, SIGMOD 2015.  The package maintains, for a
large number of standing keyword subscriptions (DAS queries), a top-k
result set over a text stream that balances text relevance, document
recency and result diversity — with the paper's group (MCS) and
individual (aggregated term weight) filtering techniques making the
matching scale.

Quickstart::

    from repro import DasEngine, DasQuery, Document

    engine = DasEngine.for_method("GIFilter", k=5)
    engine.subscribe(DasQuery(0, ["coffee", "espresso"]))
    engine.publish(Document.from_text(0, "fresh espresso downtown", 0.0))
    for doc in engine.results(0):
        print(doc.text)
"""

from repro.baselines import (
    BirtEngine,
    DiscEngine,
    IrtEngine,
    MsIncEngine,
    NaiveEngine,
)
from repro.config import (
    SLOW_CONSUMER_POLICIES,
    UNLIMITED,
    EngineConfig,
    ServerConfig,
    birt_config,
    gifilter_config,
    ifilter_config,
    irt_config,
)
from repro.core import DasEngine, DasQuery, Notification
from repro.errors import (
    ConfigurationError,
    DocumentOrderError,
    DuplicateDocumentError,
    DuplicateQueryError,
    EmptyQueryError,
    ProtocolError,
    QueryOrderError,
    ReproError,
    ServerClosedError,
    UnknownQueryError,
)
from repro.server import (
    InProcessClient,
    NdjsonTcpClient,
    NdjsonTcpServer,
    ServerRuntime,
)
from repro.scoring import ExponentialDecay, LanguageModelScorer
from repro.stream import Document, DocumentStore, SimulationClock
from repro.telemetry import Counters
from repro.text import CollectionStatistics, TermVector, Tokenizer
from repro.workloads import SyntheticTweetCorpus, lqd_queries, sqd_queries

__version__ = "1.0.0"

__all__ = [
    "BirtEngine",
    "CollectionStatistics",
    "ConfigurationError",
    "Counters",
    "DasEngine",
    "DasQuery",
    "DiscEngine",
    "Document",
    "DocumentOrderError",
    "DocumentStore",
    "DuplicateDocumentError",
    "DuplicateQueryError",
    "EmptyQueryError",
    "EngineConfig",
    "ExponentialDecay",
    "InProcessClient",
    "IrtEngine",
    "LanguageModelScorer",
    "MsIncEngine",
    "NaiveEngine",
    "NdjsonTcpClient",
    "NdjsonTcpServer",
    "Notification",
    "ProtocolError",
    "SLOW_CONSUMER_POLICIES",
    "ServerClosedError",
    "ServerConfig",
    "ServerRuntime",
    "QueryOrderError",
    "ReproError",
    "SimulationClock",
    "SyntheticTweetCorpus",
    "TermVector",
    "Tokenizer",
    "UNLIMITED",
    "UnknownQueryError",
    "birt_config",
    "gifilter_config",
    "ifilter_config",
    "irt_config",
    "lqd_queries",
    "sqd_queries",
]
