#include "os/scheduler.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/error.hpp"

namespace cs31::os {

std::string policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::Fifo: return "FIFO";
    case SchedPolicy::RoundRobin: return "RR";
    case SchedPolicy::Sjf: return "SJF";
    case SchedPolicy::Srtf: return "SRTF";
    case SchedPolicy::Priority: return "PRIO";
  }
  return "?";
}

double Schedule::avg_turnaround() const {
  double s = 0;
  for (const JobMetrics& j : jobs) s += static_cast<double>(j.turnaround);
  return jobs.empty() ? 0.0 : s / static_cast<double>(jobs.size());
}

double Schedule::avg_response() const {
  double s = 0;
  for (const JobMetrics& j : jobs) s += static_cast<double>(j.response);
  return jobs.empty() ? 0.0 : s / static_cast<double>(jobs.size());
}

double Schedule::avg_waiting() const {
  double s = 0;
  for (const JobMetrics& j : jobs) s += static_cast<double>(j.waiting);
  return jobs.empty() ? 0.0 : s / static_cast<double>(jobs.size());
}

namespace {

struct Running {
  std::size_t index;            // into the input job vector
  std::uint64_t remaining;
  bool started = false;
  std::uint64_t first_run = 0;
  std::uint64_t queued_at = 0;  // for FIFO tie-breaks in the ready set
};

}  // namespace

Schedule schedule(const std::vector<Job>& jobs, SchedPolicy policy, std::uint64_t quantum) {
  require(!jobs.empty(), "no jobs to schedule");
  if (policy == SchedPolicy::RoundRobin) {
    require(quantum >= 1, "round robin needs a nonzero quantum");
  }
  std::set<std::string> names;
  for (const Job& j : jobs) {
    if (j.burst < 1) throw Error("job '" + j.name + "' has a zero burst");
    if (!names.insert(j.name).second) throw Error("duplicate job name '" + j.name + "'");
  }

  std::vector<Running> state(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    state[i] = Running{i, jobs[i].burst, false, 0, 0};
  }

  Schedule result;
  result.jobs.resize(jobs.size());
  std::vector<std::size_t> ready;  // indexes into state, FIFO order
  std::size_t next_arrival = 0;
  std::vector<std::size_t> arrival_order(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) arrival_order[i] = i;
  std::stable_sort(arrival_order.begin(), arrival_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].arrival < jobs[b].arrival;
                   });

  std::uint64_t now = 0;
  std::uint64_t done = 0;
  std::uint64_t slice_used = 0;
  std::size_t current = SIZE_MAX;
  std::string last_on_cpu;

  auto admit_arrivals = [&] {
    while (next_arrival < arrival_order.size() &&
           jobs[arrival_order[next_arrival]].arrival <= now) {
      ready.push_back(arrival_order[next_arrival]);
      ++next_arrival;
    }
  };

  auto pick = [&]() -> std::size_t {
    // Returns the ready index to run next and removes it from `ready`.
    std::size_t chosen = 0;
    switch (policy) {
      case SchedPolicy::Fifo:
      case SchedPolicy::RoundRobin:
        chosen = 0;
        break;
      case SchedPolicy::Sjf:
      case SchedPolicy::Srtf:
        for (std::size_t i = 1; i < ready.size(); ++i) {
          if (state[ready[i]].remaining < state[ready[chosen]].remaining) chosen = i;
        }
        break;
      case SchedPolicy::Priority:
        for (std::size_t i = 1; i < ready.size(); ++i) {
          if (jobs[ready[i]].priority < jobs[ready[chosen]].priority) chosen = i;
        }
        break;
    }
    const std::size_t index = ready[chosen];
    ready.erase(ready.begin() + static_cast<long>(chosen));
    return index;
  };

  auto record_tick = [&](std::size_t index) {
    const std::string& name = jobs[index].name;
    if (!result.timeline.empty() && result.timeline.back().job == name &&
        result.timeline.back().end == now) {
      result.timeline.back().end = now + 1;
    } else {
      result.timeline.push_back(Slice{name, now, now + 1});
    }
    if (!last_on_cpu.empty() && last_on_cpu != name) ++result.context_switches;
    last_on_cpu = name;
  };

  while (done < jobs.size()) {
    admit_arrivals();
    if (current == SIZE_MAX) {
      if (ready.empty()) {
        // Idle until the next arrival.
        require(next_arrival < arrival_order.size(), "scheduler stuck with no work");
        now = jobs[arrival_order[next_arrival]].arrival;
        admit_arrivals();
      }
      current = pick();
      slice_used = 0;
      if (!state[current].started) {
        state[current].started = true;
        state[current].first_run = now;
      }
    }

    // Run one tick.
    record_tick(current);
    ++now;
    --state[current].remaining;
    ++slice_used;
    admit_arrivals();

    if (state[current].remaining == 0) {
      const Job& job = jobs[current];
      JobMetrics m;
      m.name = job.name;
      m.completion = now;
      m.turnaround = now - job.arrival;
      m.response = state[current].first_run - job.arrival;
      m.waiting = m.turnaround - job.burst;
      result.jobs[current] = m;
      ++done;
      current = SIZE_MAX;
      continue;
    }

    // Preemption rules.
    bool preempt = false;
    if (policy == SchedPolicy::RoundRobin && slice_used >= quantum && !ready.empty()) {
      preempt = true;
    }
    if (policy == SchedPolicy::Srtf) {
      for (const std::size_t r : ready) {
        if (state[r].remaining < state[current].remaining) preempt = true;
      }
    }
    if (policy == SchedPolicy::Priority) {
      for (const std::size_t r : ready) {
        if (jobs[r].priority < jobs[current].priority) preempt = true;
      }
    }
    if (preempt) {
      ready.push_back(current);
      current = SIZE_MAX;
    }
  }

  result.makespan = now;
  return result;
}

std::string render_gantt(const Schedule& schedule) {
  std::ostringstream out;
  for (const Slice& s : schedule.timeline) {
    out << s.start << "-" << s.end << ": " << s.job << '\n';
  }
  out << "makespan " << schedule.makespan << ", " << schedule.context_switches
      << " context switches\n";
  return out.str();
}

}  // namespace cs31::os
