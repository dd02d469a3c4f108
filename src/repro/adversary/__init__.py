"""The adversary subsystem: adaptive scheduling, Byzantine subversion,
coverage-guided chaos fuzzing.

The chaos layer (:mod:`repro.net.chaos`) draws its fault plan from a seed
*before* the run; everything here reacts to the run itself while staying
replayable:

* :mod:`repro.adversary.strategies` — state-reading daemon strategies for
  the shared-memory simulator (plug into
  :class:`~repro.sim.scheduler.StrategyDaemon`), e.g. starving the head of
  the longest waiting chain as it moves;
* :mod:`repro.adversary.byzantine` — the beyond-the-model fault: a
  "crashed" process that keeps emitting protocol-shaped frames instead of
  halting, for both the message-passing engine and the live cluster;
* :mod:`repro.adversary.feedback` — a :class:`~repro.net.chaos.ChaosController`
  subclass that reads the cluster's obs event stream and aims partitions,
  replays, and heals at the most vulnerable node, recording every decision
  as a static, replayable schedule;
* :mod:`repro.adversary.corpus` — the versioned schedule-file format that
  ``repro fuzz`` writes and ``repro cluster soak --schedule-file`` replays;
* :mod:`repro.adversary.fuzz` — the coverage-guided fuzzing loop scoring
  mutated schedules by novel behaviour signatures on the deterministic
  message-passing engine.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".byzantine": "ByzantineDinerProcess subvert",
    ".corpus": (
        "SCHEDULE_FORMAT_VERSION ScheduleDoc read_schedule schedule_from_doc "
        "schedule_to_doc write_schedule"
    ),
    ".feedback": "FeedbackChaosController",
    ".fuzz": (
        "FuzzLimits FuzzResult evaluate_schedule mutate_schedule run_fuzz"
    ),
    ".strategies": "ChainStarveStrategy longest_waiting_chain",
})
