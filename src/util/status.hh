/**
 * @file
 * The structured error taxonomy of the execution stack.
 *
 * Before this header, the execution layers had exactly two failure
 * modes: panic (abort the process) and silence. Neither survives a
 * flaky backend. Status gives execution paths a third option — a
 * typed, inspectable error that travels through StatusOr returns,
 * thrown StatusError wrappers, and promise exceptions — so a failed
 * job reports instead of wedging its session or killing the process.
 *
 * Taxonomy (a deliberately small subset of the canonical gRPC set):
 *
 *   InvalidArgument    the submission itself is malformed (no
 *                      measurements, width mismatch); permanent.
 *   FailedPrecondition the system refuses the submission (e.g. the
 *                      key is quarantined); permanent until the
 *                      operator intervenes.
 *   DeadlineExceeded   the per-job deadline elapsed before an
 *                      attempt succeeded.
 *   ResourceExhausted  admission shed the job (bounded session
 *                      queue full); safe to resubmit later.
 *   Unavailable        a transient executor failure; retryable.
 *   DataLoss           result corruption detected on the wire
 *                      (digest mismatch); retryable.
 *   Internal           an invariant failed inside the stack.
 *
 * transient() marks the codes a bounded retry loop may absorb
 * (Unavailable, DataLoss). Everything else fails fast.
 *
 * Invariant violations (programming bugs) still panic — Status is
 * for DATA-dependent and ENVIRONMENT-dependent failures only. The
 * varsaw-lint `status-taxonomy` rule enforces that src/service/
 * throws nothing but StatusError.
 */

#ifndef VARSAW_UTIL_STATUS_HH
#define VARSAW_UTIL_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace varsaw {

/** Error classification of a failed operation (Ok == success). */
enum class StatusCode
{
    Ok = 0,
    InvalidArgument,
    FailedPrecondition,
    DeadlineExceeded,
    ResourceExhausted,
    Unavailable,
    DataLoss,
    Internal,
};

/** Human-readable name of @p code ("ok", "unavailable", ...). */
inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:
        return "ok";
      case StatusCode::InvalidArgument:
        return "invalid-argument";
      case StatusCode::FailedPrecondition:
        return "failed-precondition";
      case StatusCode::DeadlineExceeded:
        return "deadline-exceeded";
      case StatusCode::ResourceExhausted:
        return "resource-exhausted";
      case StatusCode::Unavailable:
        return "unavailable";
      case StatusCode::DataLoss:
        return "data-loss";
      case StatusCode::Internal:
        return "internal";
    }
    return "unknown";
}

/** A success-or-typed-error value (code + message). */
class Status
{
  public:
    /** Success. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    bool ok() const { return code_ == StatusCode::Ok; }

    StatusCode code() const { return code_; }

    const std::string &message() const { return message_; }

    /**
     * Whether a bounded retry loop may absorb this failure:
     * transient backend unavailability and detected wire corruption
     * retry; malformed submissions, quarantine refusals, deadline
     * and admission failures do not.
     */
    bool transient() const
    {
        return code_ == StatusCode::Unavailable ||
            code_ == StatusCode::DataLoss;
    }

    /** "<code-name>: <message>" (just the name when no message). */
    std::string toString() const
    {
        if (message_.empty())
            return statusCodeName(code_);
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

inline Status
invalidArgumentError(std::string message)
{
    return {StatusCode::InvalidArgument, std::move(message)};
}

inline Status
failedPreconditionError(std::string message)
{
    return {StatusCode::FailedPrecondition, std::move(message)};
}

inline Status
deadlineExceededError(std::string message)
{
    return {StatusCode::DeadlineExceeded, std::move(message)};
}

inline Status
resourceExhaustedError(std::string message)
{
    return {StatusCode::ResourceExhausted, std::move(message)};
}

inline Status
unavailableError(std::string message)
{
    return {StatusCode::Unavailable, std::move(message)};
}

inline Status
dataLossError(std::string message)
{
    return {StatusCode::DataLoss, std::move(message)};
}

inline Status
internalError(std::string message)
{
    return {StatusCode::Internal, std::move(message)};
}

/**
 * The exception form of a non-ok Status — the ONE exception type
 * execution paths in service/ are allowed to throw
 * (enforced by the `status-taxonomy` lint rule). Futures carry it
 * to consumers via promise::set_exception / packaged_task.
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()),
          status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }

    StatusCode code() const { return status_.code(); }

  private:
    Status status_;
};

/**
 * Either a value or the Status explaining its absence.
 *
 * Usage on execution paths:
 *
 *     StatusOr<Pmf> r = backend.tryExecuteJob(job, stream);
 *     if (!r.ok())
 *         return r.status();   // or throw StatusError(r.status())
 *     use(*r);
 *
 * value()/operator* on an error throws StatusError — never call
 * them without checking ok() unless propagation-by-exception is the
 * intent.
 */
template <typename T> class StatusOr
{
  public:
    /** Success. */
    StatusOr(T value) : value_(std::move(value)) {}

    /** Failure; @p status must be non-ok. */
    StatusOr(Status status) : status_(std::move(status))
    {
        if (status_.ok())
            status_ = internalError(
                "StatusOr constructed from an ok Status");
    }

    bool ok() const { return value_.has_value(); }

    /** The error (ok Status when a value is present). */
    const Status &status() const { return status_; }

    const T &value() const &
    {
        ensure();
        return *value_;
    }

    T &value() &
    {
        ensure();
        return *value_;
    }

    T &&value() &&
    {
        ensure();
        return std::move(*value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    T &&operator*() && { return std::move(*this).value(); }

    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

  private:
    void ensure() const
    {
        if (!value_.has_value())
            throw StatusError(status_);
    }

    std::optional<T> value_;
    Status status_;
};

} // namespace varsaw

#endif // VARSAW_UTIL_STATUS_HH
