// Clang thread-safety annotation macros (no-ops off clang).
//
// These wrap the attributes behind Clang's `-Wthread-safety` analysis
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), which checks
// lock discipline at COMPILE TIME: every field that names its guarding
// capability with GUARDED_BY is rejected when read or written without
// that capability held, and every function that declares REQUIRES /
// ACQUIRE / RELEASE has its callers checked against the declaration.
//
// House conventions (enforced by tools/paleo_lint.py, checked by the
// PALEO_ANALYZE CMake lane, documented in DESIGN.md "Static analysis"):
//
//   - Concurrent code uses the annotated wrappers in common/mutex.h
//     (paleo::Mutex / MutexLock / CondVar), never raw
//     std::mutex members — the std types carry no capability
//     attributes with libstdc++, so the analysis cannot see them.
//   - Every Mutex member is accompanied by at least one GUARDED_BY
//     field: a mutex that guards nothing is either dead or hiding an
//     undeclared invariant.
//   - Private helpers that run under a caller's lock declare
//     REQUIRES(mutex_) instead of re-locking.
//
// On GCC (which has no thread-safety analysis) and on Clang builds
// without the attribute, every macro expands to nothing, so annotated
// headers compile identically everywhere.

#ifndef PALEO_COMMON_THREAD_ANNOTATIONS_H_
#define PALEO_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define PALEO_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PALEO_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

/// Marks a class as a capability (a lockable resource) named `x` in
/// diagnostics, e.g. class CAPABILITY("mutex") Mutex { ... };
#define CAPABILITY(x) PALEO_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability (e.g. MutexLock).
#define SCOPED_CAPABILITY PALEO_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that the field it annotates is protected by capability `x`:
/// reads require `x` held (shared or exclusive), writes require it held
/// exclusively.
#define GUARDED_BY(x) PALEO_THREAD_ANNOTATION_(guarded_by(x))

/// Like GUARDED_BY, for the data a pointer/smart-pointer field points
/// to (the pointer itself is unguarded).
#define PT_GUARDED_BY(x) PALEO_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function must be called with the listed capabilities
/// held exclusively; it neither acquires nor releases them.
#define REQUIRES(...) \
  PALEO_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Shared (reader) flavor of REQUIRES.
#define REQUIRES_SHARED(...) \
  PALEO_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires the listed capabilities exclusively
/// and returns with them held.
#define ACQUIRE(...) \
  PALEO_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Shared (reader) flavor of ACQUIRE.
#define ACQUIRE_SHARED(...) \
  PALEO_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The annotated function releases the listed capabilities (exclusive
/// or shared), which must be held on entry.
#define RELEASE(...) \
  PALEO_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Shared (reader) flavor of RELEASE.
#define RELEASE_SHARED(...) \
  PALEO_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The annotated function acquires the capability only when it returns
/// the given value (e.g. TRY_ACQUIRE(true) for try_lock).
#define TRY_ACQUIRE(...) \
  PALEO_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// The listed capabilities must NOT be held when the annotated function
/// is called (deadlock prevention for self-locking functions).
#define EXCLUDES(...) PALEO_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated function returns a reference to the named capability
/// (e.g. an accessor exposing the guarding mutex).
#define RETURN_CAPABILITY(x) PALEO_THREAD_ANNOTATION_(lock_returned(x))

/// Asserts (at runtime, from the analysis' point of view) that the
/// capability is held — an escape hatch for code the analysis cannot
/// follow.
#define ASSERT_CAPABILITY(x) \
  PALEO_THREAD_ANNOTATION_(assert_capability(x))

/// Turns the analysis off for one function. Use sparingly and leave a
/// comment saying why the analysis cannot follow the code.
#define NO_THREAD_SAFETY_ANALYSIS \
  PALEO_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Declares the global acquisition ORDER between two mutexes: the
/// annotated mutex is always taken before (resp. after) the listed
/// ones. Clang's analysis checks the order at -Wthread-safety-beta;
/// tools/paleo_analyze.py's lock-order pass reads the same annotations
/// as authoritative edges in its cross-file acquisition graph, so an
/// annotation that contradicts observed nesting shows up as a cycle.
#define ACQUIRED_BEFORE(...) \
  PALEO_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// See ACQUIRED_BEFORE; this is the mirrored direction.
#define ACQUIRED_AFTER(...) \
  PALEO_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

#endif  // PALEO_COMMON_THREAD_ANNOTATIONS_H_
