// Deterministic cooperative scheduler: the execution engine of the
// concurrency model checker (DESIGN.md §12).
//
// The scheduler serializes the *real* implementation threads (drivers,
// AUQ workers) so that exactly one registered thread runs at a time; a
// token is handed from thread to thread at explicit scheduling points.
// Scheduling points are:
//
//   * CHECK_YIELD sites (src/check/yield.h) — the seam instrumentation
//     in auq.cc / observers.cc / region_server.cc / wal.cc /
//     base_row_cache.cc. These are the *decision* points: when more than
//     one thread could run, the scheduler records the choice (for the
//     explorer to branch on) or replays a forced choice sequence.
//   * Blocking operations in util/mutex.h — a registered thread that
//     would block on a Mutex/SharedMutex/CondVar parks cooperatively and
//     passes the token instead of blocking the OS thread (a real block
//     while holding the token would hang the run, since the lock holder
//     may itself be parked).
//
// Between scheduling points execution is single-threaded, so a run is a
// pure function of the recorded choice sequence: replaying the same
// choices replays the same interleaving bit-for-bit. The explorer
// (src/check/explorer.h) drives DFS over these choice sequences.
//
// A run ends when every non-daemon thread has exited and all remaining
// daemon threads are blocked (the quiescent terminal state — for the
// AUQ this means the queue is drained). The scheduler then flips to
// *release mode*: every hook becomes a pass-through, parked threads
// resume under the OS scheduler, and teardown/oracle code runs
// unconstrained.
//
// The scheduler itself uses raw std primitives (not util/mutex.h): the
// instrumented wrappers call back into it, so using them here would
// recurse. The analyzer's raw-mutex rule exempts this file and
// scheduler.cc for that reason.

#ifndef DIFFINDEX_CHECK_SCHEDULER_H_
#define DIFFINDEX_CHECK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

namespace diffindex {
namespace check {

// One scheduling decision: which thread got the token when more than one
// was enabled. `options` is sorted by thread id; `running` is the thread
// that held the token at the decision (-1 if it had just blocked or
// exited); choosing an enabled thread other than `running` is a
// preemption.
struct DecisionRecord {
  struct Option {
    int thread = -1;
    // The op the thread performs next if scheduled: its last CHECK_YIELD
    // tag, "mutex.lock" with the lock address, or "cv.wake". Used by the
    // explorer's independence test for sleep-set pruning.
    const char* tag = "start";
    const void* resource = nullptr;
    bool is_lock = false;
  };
  std::vector<Option> options;
  int chosen = -1;
  int running = -1;
};

class Scheduler {
 public:
  struct Options {
    // Livelock guard: a run exceeding this many recorded decisions is
    // terminated with a "livelock" violation.
    int max_decisions = 50000;
  };

  Scheduler() : Scheduler(Options()) {}
  explicit Scheduler(Options options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Installs this scheduler as the process-global active one (at most
  // one at a time; Activate aborts if another is active).
  void Activate();
  void Deactivate();
  static Scheduler* Active();

  // True when the calling thread is registered with the active scheduler
  // and the run is still in controlled mode — the cheap guard every
  // instrumentation hook checks first.
  static bool ControlledHere();
  // The scheduler controlling the calling thread, or nullptr.
  static Scheduler* CurrentIfControlled();

  // ---- Thread lifecycle ------------------------------------------------
  // Registers the calling thread. The first registration while no thread
  // holds the token (the run's main thread) claims it and returns
  // immediately; later registrations park until scheduled. Daemon
  // threads (AUQ workers) do not count toward run completion.
  int RegisterCurrentThread(const char* name, bool daemon);
  // Marks the calling thread exited and passes the token.
  void UnregisterCurrentThread();
  // Total threads ever registered (monotone; ids are dense from 0).
  int RegisteredCount();
  // Blocks (for real — registration does not need the token) until
  // `count` threads have registered. Called by the token holder right
  // after spawning threads so ids are assigned deterministically.
  void AwaitRegistered(int count);

  // ---- Instrumentation hooks -------------------------------------------
  // Decision point (CHECK_YIELD). May switch to another thread; returns
  // once the calling thread is scheduled again.
  void Yield(const char* tag, const void* resource, bool is_lock);
  // The calling thread failed to acquire the lock at `addr`: park until
  // a release makes it runnable and the scheduler picks it. Returns
  // false when the scheduler released mid-park (caller falls back to a
  // real blocking acquire).
  bool BlockOnMutex(const void* addr);
  // A lock at `addr` was released: every thread parked on it becomes
  // runnable (no token transfer — the releaser keeps running).
  void OnMutexRelease(const void* addr);
  // Cooperative condition-variable wait. The caller must have released
  // the associated Mutex already (it still holds the token between the
  // release and this call, so no wakeup can be lost). `timed` marks a
  // WaitFor: timed waiters are woken by quiescence (the "timeout") when
  // nothing else can run. Returns false when the scheduler released
  // mid-park.
  bool BlockOnCv(const void* cv_addr, bool timed);
  // Signal/SignalAll on `cv_addr`: every parked waiter becomes runnable
  // (waking all on Signal over-approximates, which spurious-wakeup
  // semantics make legal).
  void OnCvNotify(const void* cv_addr);
  // Records an instrumentation event (CHECK_POINT_VAL) for the oracle,
  // e.g. the AUQ depth observed at the flush drain barrier.
  void NotePoint(const char* tag, long long value);

  // ---- Run orchestration (explorer / test driver side) -----------------
  // Forces the first `choices.size()` decisions; beyond the prefix the
  // default policy applies (keep the running thread; else lowest id).
  void SetReplay(std::vector<int> choices);
  // Decisions are only recorded (and replayed) inside the exploration
  // window. Setup code runs with the window off so the explorer does not
  // branch over cluster-construction interleavings.
  void SetExplorationWindow(bool on);
  // Called by the run's main thread after spawning the driver threads:
  // unregisters it and blocks (for real) until the run completes, then
  // returns with the scheduler in release mode.
  void FinishMainAndWait();

  // ---- Results ---------------------------------------------------------
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }
  std::vector<int> choices() const;
  // "", or "deadlock: ..." / "livelock: ...".
  const std::string& violation() const { return violation_; }
  // True when a replayed choice was not enabled at its decision — the
  // run under replay did not reproduce the recorded interleaving.
  bool diverged() const { return diverged_; }

  struct PointEvent {
    const char* tag;
    long long value;
    int thread;
  };
  const std::vector<PointEvent>& points() const { return points_; }

 private:
  struct ThreadState {
    enum class Run {
      kRunnable,
      kRunning,
      kBlockedMutex,
      kBlockedCv,
      kExited,
    };
    std::string name;
    bool daemon = false;
    Run run = Run::kRunnable;
    const void* wait_addr = nullptr;
    bool timed = false;
    // Pending-op signature: what the thread does next when scheduled.
    const char* pending_tag = "start";
    const void* pending_resource = nullptr;
    bool pending_is_lock = false;
  };

  int ChooseLocked(const std::vector<DecisionRecord::Option>& options,
                   int running);
  void ScheduleNextLocked();
  void CompleteLocked();
  void ParkLocked(std::unique_lock<std::mutex>& lk, int id);

  const Options options_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> controlled_{true};
  std::vector<ThreadState> threads_;
  int current_ = -1;
  bool window_ = false;
  std::vector<int> replay_;
  size_t decision_index_ = 0;
  std::vector<DecisionRecord> decisions_;
  std::vector<PointEvent> points_;
  std::string violation_;
  bool diverged_ = false;
};

}  // namespace check
}  // namespace diffindex

#endif  // DIFFINDEX_CHECK_SCHEDULER_H_
