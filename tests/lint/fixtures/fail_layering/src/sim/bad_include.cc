// FAIL fixture [layering]: sim/ must build without service/ (the
// execution layer sits above sim and mitigation) — neither the
// service nor its ledger may be included from below.
#include "service/execution_service.hh"
#include "service/job_ledger.hh"
#include "util/parallel.hh" // allowed — not a finding

namespace fixture {
int touch() { return 1; }
} // namespace fixture
