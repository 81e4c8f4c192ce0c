"""Online join/search serving (`repro-join serve`).

The build-once / query-many layer over the paper's machinery: a
persistent threaded server constructs the
:class:`~repro.core.search.SimilaritySearcher` (Section 4 segment
index + :class:`~repro.core.context.CollectionContext`) once and
answers ``search`` / ``topk`` / ``mini-join`` requests (JSON over
HTTP) with per-request τ/k — the serving model of *Probabilistic
Threshold Indexing for Uncertain Strings* (PAPERS.md) layered on this
repo's engine.

Robustness carries the design (DESIGN.md §6h):

* **admission control** (:mod:`repro.serve.admission`) — max-in-flight
  semaphore + bounded wait; excess load is shed as an explicit ``503``
  with ``Retry-After``, never queued unboundedly;
* **deadlines** (:mod:`repro.core.deadline`) — every admitted request
  runs under a monotonic cooperative deadline scope enforced inside
  the engine's refinement path; expiry is a typed
  ``deadline_exceeded`` response carrying any partial results, never a
  hang;
* **graceful degradation** (:mod:`repro.serve.service`) — under
  deadline pressure the exact verifier falls back to the
  Hoeffding-bounded sampling verifier and the response is flagged
  ``degraded: true``;
* **warm reload** — ``/admin/reload`` (or ``SIGHUP``) atomically
  swaps in a revalidated collection or index-store generation; a
  missing or corrupt file keeps the old generation serving;
* **crash-only shutdown** — drain in-flight requests against a drain
  deadline, then abort;
* **request-path fault injection** — the executor's
  :class:`~repro.util.faults.FaultPlan` grammar extended with
  ``slow@``/``drop@``/``corrupt-resp@`` request targets so tests can
  prove byte-identical answers and bounded latency under faults.
"""

from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    ERROR_STATUS,
    error_document,
    match_document,
)
from repro.serve.service import JoinService, ServeOptions

__all__ = [
    "AdmissionController",
    "ERROR_STATUS",
    "JoinService",
    "ServeOptions",
    "error_document",
    "match_document",
]
