"""A preemptive fixed-priority CPU scheduler, simulated event to event.

Runs a set of periodic :class:`~repro.host.tasks.TaskSpec` on one CPU:
jobs are released periodically, preempt lower-priority jobs, and *emit
their message* when their (seeded, variable) execution demand completes.
The emission instants — the points where the application hands a message
to the network module — are collected per task and are what the HRTDM
model calls arrivals.

The implementation is an exact event-driven simulation: the CPU state
changes only at releases and completions, so we advance from event to
event with closed-form progress updates (no per-tick loop), keeping the
pending releases in its own ``heapq``.
"""

from __future__ import annotations

import dataclasses
import heapq

from repro.host.tasks import Job, TaskSpec
from repro.sim.rng import SeedSequenceRegistry

__all__ = ["HostSchedule", "simulate_host"]


@dataclasses.dataclass
class HostSchedule:
    """Result of a host simulation: emissions and response-time stats."""

    horizon: int
    emissions: dict[str, list[int]]
    jobs: list[Job]

    def emission_trace(self, task_name: str) -> list[int]:
        """Network-layer arrival instants for one task, sorted."""
        return self.emissions[task_name]

    def worst_response(self, task_name: str) -> int:
        return max(
            job.response_time
            for job in self.jobs
            if job.task.name == task_name and job.emitted
        )

    def jitter(self, task_name: str) -> int:
        """Worst minus best response time — the submission-time variability
        section 2.2 warns about."""
        responses = [
            job.response_time
            for job in self.jobs
            if job.task.name == task_name and job.emitted
        ]
        return max(responses) - min(responses)


def simulate_host(
    tasks: list[TaskSpec], horizon: int, seed: int = 0
) -> HostSchedule:
    """Run the task set to ``horizon`` under preemptive fixed priorities.

    Deterministic per seed.  Raises if two tasks share a priority (the
    schedule would be ambiguous).
    """
    if len({task.priority for task in tasks}) != len(tasks):
        raise ValueError("task priorities must be distinct")
    rng = SeedSequenceRegistry(seed)
    # Pending releases: (time, priority, Job).
    releases: list[tuple[int, int, Job]] = []
    for task in tasks:
        stream = rng.stream(f"exec:{task.name}")
        release = task.offset
        while release < horizon:
            execution = (
                task.bcet
                if task.bcet == task.wcet
                else stream.randint(task.bcet, task.wcet)
            )
            heapq.heappush(
                releases,
                (release, task.priority, Job(task, release, execution)),
            )
            release += task.period
    ready: list[tuple[int, int, Job]] = []  # (priority, release, job)
    remaining: dict[int, int] = {}
    jobs: list[Job] = []
    emissions: dict[str, list[int]] = {task.name: [] for task in tasks}
    now = 0
    while now < horizon and (releases or ready):
        # Admit all releases due now.
        while releases and releases[0][0] <= now:
            _, priority, job = heapq.heappop(releases)
            jobs.append(job)
            heapq.heappush(ready, (priority, job.release, job))
            remaining[id(job)] = job.execution
        if not ready:
            now = releases[0][0] if releases else horizon
            continue
        priority, _, job = ready[0]
        # Run the highest-priority job until it finishes or the next
        # release arrives (which may preempt it).
        next_release = releases[0][0] if releases else horizon
        finish_at = now + remaining[id(job)]
        if finish_at <= next_release:
            heapq.heappop(ready)
            del remaining[id(job)]
            job.finished_at = finish_at
            emissions[job.task.name].append(finish_at)
            now = finish_at
        else:
            remaining[id(job)] -= next_release - now
            now = next_release
    for task_emissions in emissions.values():
        task_emissions.sort()
    return HostSchedule(horizon=horizon, emissions=emissions, jobs=jobs)
