// Fixture: failpoint sites and metric instruments for the catalog
// cross-checks. One of each pair is cataloged in the fixture docs (must
// stay clean) and one is not (fires *-undocumented).

#include "common/failpoint.h"
#include "common/metrics.h"

namespace dpfs::common {

void Touch() {
  if (failpoint::Check("fixture.documented")) {
  }
  if (failpoint::Check("fixture.undocumented")) {
  }
  metrics::GetCounter("fix.documented").Increment();
  metrics::GetCounter("fix.undocumented").Increment();
}

// The server transport's indirect forms: failpoint sites named in options,
// and instruments registered under a prefix the owner passes.
struct Options {
  std::string metric_prefix = "fixprefix";
  const char* session_failpoint = "fixture.option_documented";
  const char* reply_failpoint = "fixture.option_undocumented";
};

void TouchPrefixed(const Options& options) {
  metrics::GetCounter(options.metric_prefix + ".documented").Increment();
  metrics::GetCounter(options.metric_prefix + ".undocumented").Increment();
}

}  // namespace dpfs::common
