"""Durable investigation sessions: kill a fleet, resume without re-charging.

The charged half of a fleet run — one VirusTotal file submission per
unique payload hash — is the only part worth journaling: probes are pure
and free to recompute. A session directory is a
:class:`~repro.stream.persist.SnapshotStore`:

* ``INVESTIGATE.json`` — the manifest: the run identity (scenario,
  fault plan, execution policy), playbook, sample, commit cadence and
  (once the first commit lands) the digest of the state file. Written
  atomically before any charged work, so a kill at any instant leaves a
  resumable directory.
* ``state.pkl`` — the pickled state: completed scan results (hash,
  verdict, simulated completion time) plus the restorable-state registry
  (clock, VirusTotal meter, circuit breaker, fault-proxy counter).

Resume rebuilds the world and pipeline from the manifest's scenario
(deterministic), re-runs the free probe phase, restores the registry to
the crash-time instant, and continues scanning from the cursor — so the
total charges across crash + resume equal an uninterrupted run's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..checkpoint.identity import identity_from_dict, identity_to_dict
from ..checkpoint.state import StateRegistry
from ..exec import ExecutionPolicy
from ..faults import FaultPlan
from ..services.euphony import FamilyVerdict
from ..stream.persist import SnapshotStore
from ..world.scenario import ScenarioConfig

INVESTIGATE_MANIFEST_NAME = "INVESTIGATE.json"
#: Version 3: the policy lost its cache bound; older directories
#: (version 1 nested ``state_ref``) are refused, not misread.
INVESTIGATE_FORMAT_VERSION = 3

#: One completed charged scan: ``(sha256, verdict-or-None, sim_time)``.
#: ``verdict`` of None records a scan gap (the service never answered).
ScanResult = Tuple[str, Optional[FamilyVerdict], float]


class InvestigationSession:
    """Create/commit/load the durable state of one fleet's charged phase."""

    def __init__(
        self,
        store: SnapshotStore,
        *,
        scenario: ScenarioConfig,
        playbook: str,
        sample: Optional[int],
        commit_every: int,
        fault_plan: Optional[FaultPlan],
        policy: ExecutionPolicy,
    ):
        self.store = store
        self.scenario = scenario
        self.playbook = playbook
        self.sample = sample
        self.commit_every = max(1, int(commit_every))
        self.fault_plan = fault_plan
        self.policy = policy
        self.resuming = False
        #: Committed charged work, restored on load.
        self.scan_results: List[ScanResult] = []
        self.registry_state: Dict[str, Dict[str, Any]] = {}

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Path,
        *,
        scenario: ScenarioConfig,
        playbook: str,
        sample: Optional[int],
        commit_every: int = 1,
        fault_plan: Optional[FaultPlan] = None,
        policy: ExecutionPolicy = ExecutionPolicy(),
    ) -> "InvestigationSession":
        session = cls(
            _investigate_store(directory),
            scenario=scenario,
            playbook=playbook,
            sample=sample,
            commit_every=commit_every,
            fault_plan=fault_plan,
            policy=policy,
        )
        # Persist before any charged work: a kill during the very first
        # scan must still leave a loadable session behind.
        session.store.create(session._manifest())
        return session

    @classmethod
    def load(cls, directory: Path) -> "InvestigationSession":
        store = _investigate_store(directory)
        manifest, payload = store.load()
        scenario, fault_plan, policy = identity_from_dict(manifest)
        session = cls(
            store,
            scenario=scenario,
            playbook=manifest["playbook"],
            sample=manifest.get("sample"),
            commit_every=manifest.get("commit_every", 1),
            fault_plan=fault_plan,
            policy=policy,
        )
        session.resuming = True
        if payload is not None:
            session.scan_results = list(payload["scan_results"])
            session.registry_state = dict(payload["registry"])
        return session

    # -- state ----------------------------------------------------------------

    @property
    def fault_profile(self) -> str:
        """The named chaos profile the charged phase runs under."""
        if self.fault_plan is None:
            return "none"
        return self.fault_plan.profile or "none"

    def restore(self, registry: StateRegistry) -> None:
        """Put the fleet's registered objects back to the crash-time
        instant (a key this run did not register is refused)."""
        registry.restore(self.registry_state)

    def maybe_commit(self, scan_results: List[ScanResult],
                     registry: StateRegistry) -> None:
        """Commit when the configured granularity says so."""
        if len(scan_results) % self.commit_every == 0:
            self.commit(scan_results, registry)

    def commit(self, scan_results: List[ScanResult],
               registry: StateRegistry) -> None:
        """Durably record completed scans plus restorable state."""
        self.store.commit({"scan_results": list(scan_results),
                           "registry": registry.capture()},
                          self._manifest())

    def _manifest(self) -> Dict[str, Any]:
        return {
            **identity_to_dict(self.scenario, self.fault_plan, self.policy),
            "playbook": self.playbook,
            "sample": self.sample,
            "commit_every": self.commit_every,
        }


def _investigate_store(directory) -> SnapshotStore:
    return SnapshotStore(directory, INVESTIGATE_MANIFEST_NAME,
                         INVESTIGATE_FORMAT_VERSION)

