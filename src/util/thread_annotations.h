// Clang Thread Safety Analysis annotations (-Wthread-safety), in the
// style of abseil's thread_annotations.h. Under compilers without the
// attributes (GCC) every macro expands to nothing, so the annotations are
// documentation there and a hard gate under the clang CI job, which
// builds with -Wthread-safety -Werror.
//
// Usage (see util/mutex.h for the annotated lock types):
//
//   class Queue {
//    public:
//     void Push(Task t) EXCLUDES(mu_);
//    private:
//     void DrainLocked() REQUIRES(mu_);
//     Mutex mu_;
//     std::deque<Task> tasks_ GUARDED_BY(mu_);
//   };
//
// The analyzer rule `raw-mutex` (tools/analyzer) keeps all of src/ on
// the annotated wrappers so the analysis sees every lock.

#ifndef DIFFINDEX_UTIL_THREAD_ANNOTATIONS_H_
#define DIFFINDEX_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

// On a data member: may only be read/written while holding `x`.
#define GUARDED_BY(x) DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// On a pointer/smart-pointer member: the pointed-to data is guarded by
// `x` (the pointer itself may be accessed freely).
#define PT_GUARDED_BY(x) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// On a function: the caller must hold the listed capabilities
// (exclusively / shared) for the duration of the call.
#define REQUIRES(...) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...)                 \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(     \
      requires_shared_capability(__VA_ARGS__))

// On a function: the caller must NOT hold the listed capabilities (the
// function acquires them itself; calling with them held would deadlock).
#define EXCLUDES(...) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// On a function: acquires / releases the listed capabilities.
#define ACQUIRE(...) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...)                  \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(     \
      acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...)                  \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(     \
      release_shared_capability(__VA_ARGS__))

// On a try-lock function: acquires the capability iff the return value
// equals `b`.
#define TRY_ACQUIRE(...) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// On a function returning a reference to a capability (lock accessors
// like Region::write_mu()).
#define RETURN_CAPABILITY(x) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// On a class: instances are a capability (a lock type).
#define CAPABILITY(x) DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// On a class: RAII object that acquires in the constructor and releases
// in the destructor.
#define SCOPED_CAPABILITY DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// On a function: asserts the capability is held (runtime-checked
// acquire from the analysis's point of view).
#define ASSERT_CAPABILITY(x) \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

// Escape hatch: the function intentionally breaks the rules (e.g. a
// destructor that knows it is the only thread left). Every use needs a
// comment saying why.
#define NO_THREAD_SAFETY_ANALYSIS \
  DIFFINDEX_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// On a lock member: declares the global acquisition order. A lock
// annotated ACQUIRED_BEFORE(m) must always be taken before `m` when both
// are held; ACQUIRED_AFTER is the mirror image. These deliberately expand
// to NOTHING even under clang: the upstream acquired_before/after
// attributes require the argument to name-resolve in situ, which rules
// out the cross-class references we need (e.g. a Region lock ordered
// against a RegionServer lock). Instead the annotations are consumed
// textually by the `lock-order` rule in tools/analyzer, which builds the
// acquisition graph and fails CI on cycles and on nestings against it,
// and they are mirrored at runtime by the LockRank checker in
// util/lock_order.h. Arguments are free-form lock names (canonical form:
// trailing `_`, `->`/`()`/`.` stripped by the analyzer — `write_mu()`,
// `write_mu_` and `write_mu` all name the same lock).
#define ACQUIRED_BEFORE(...)
#define ACQUIRED_AFTER(...)

#endif  // DIFFINDEX_UTIL_THREAD_ANNOTATIONS_H_
