// Table 3: Apache-autoindex throughput — dynamically generated directory
// listing pages, requests/sec over directories of increasing size (§6.3).
#include <vector>

#include "bench/common.h"
#include "src/workload/webserver.h"

namespace dircache {
namespace bench {
namespace {

double MeasureReqPerSec(const CacheConfig& cfg, size_t files) {
  Env env = MakeEnv(cfg, 1 << 18, 1 << 17);
  auto created = GenerateFlatDir(env.T(), "/htdocs", files, "page", 64);
  if (!created.ok()) {
    return 0;
  }
  AutoIndexServer server(env.T());
  (void)server.HandleRequest("/htdocs");  // warm
  int requests = files >= 10000 ? 20 : (files >= 1000 ? 150 : 1500);
  // Median of five batches: single-CPU hosts are noisy at these scales.
  std::vector<double> rates;
  for (int batch = 0; batch < 5; ++batch) {
    Stopwatch sw;
    for (int i = 0; i < requests; ++i) {
      auto page = server.HandleRequest("/htdocs");
      if (!page.ok()) {
        return 0;
      }
    }
    rates.push_back(requests / sw.ElapsedSeconds());
  }
  return Quantile(std::move(rates), 1, 2);
}

}  // namespace
}  // namespace bench
}  // namespace dircache

int main() {
  using namespace dircache;
  using namespace dircache::bench;
  Banner("Table 3",
         "Apache directory-listing throughput (requests/sec, higher is "
         "better)");
  std::printf("%10s %14s %14s %10s\n", "# of files", "unmodified",
              "optimized", "gain");
  for (size_t files : {10u, 100u, 1000u, 10000u}) {
    double base = MeasureReqPerSec(Unmodified(), files);
    double opt = MeasureReqPerSec(Optimized(), files);
    std::printf("%10zu %14.1f %14.1f %+9.1f%%\n", files, base, opt,
                (opt / base - 1.0) * 100.0);
  }
  std::printf("\nPaper: +5.9%% to +12.2%% across the same sweep.\n");
  return 0;
}
