// replicationd service benchmarks: sustained event-apply throughput of
// the versioned state store, socket line framing, snapshot serialization
// cost, and /metrics scrape latency while a mutator thread is applying
// events (the daemon's steady-state contention pattern). Compiled into micro_benchmarks so
// scripts/bench_snapshot.sh snapshots the *_mean numbers per PR.
#include <benchmark/benchmark.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "impatience/service/daemon.hpp"
#include "impatience/service/http.hpp"
#include "impatience/service/metrics.hpp"
#include "impatience/service/protocol.hpp"
#include "impatience/service/state_store.hpp"

namespace {

using namespace impatience;

service::StoreConfig bench_config(std::uint32_t nodes) {
  service::StoreConfig config;
  config.num_nodes = nodes;
  config.num_items = nodes;
  config.cache_capacity = 5;
  return config;
}

std::vector<service::Event> bench_stream(std::uint32_t nodes,
                                         std::uint64_t events,
                                         std::uint64_t seed) {
  service::StreamConfig config;
  config.events = events;
  config.num_nodes = nodes;
  config.num_items = nodes;
  config.quit = false;
  return service::generate_stream(config, seed);
}

// Sustained ingest rate: how many protocol events per second one store
// absorbs, QCR reaction and mandate routing included. Fresh store per
// iteration so the cache/mandate population profile is steady.
void BM_ServiceThroughput(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto events = bench_stream(nodes, 4000, 17);
  std::uint64_t version = 0;
  for (auto _ : state) {
    service::StateStore store(bench_config(nodes), 11);
    for (const service::Event& event : events) {
      version = store.apply(event);
    }
    benchmark::DoNotOptimize(version);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ServiceThroughput)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Daemon start-up: a fresh store at Arg nodes x 1000 items, rho = 5 (the
// ingest_snapshot shape). Per-node state is sized by what a node holds,
// so this is the cache fill, not a per-item row per node.
void BM_StoreConstruct(benchmark::State& state) {
  service::StoreConfig config;
  config.num_nodes = static_cast<std::uint32_t>(state.range(0));
  config.num_items = 1000;
  config.cache_capacity = 5;
  for (auto _ : state) {
    service::StateStore store(config, 11);
    benchmark::DoNotOptimize(store.version());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreConstruct)->Arg(50000)->Unit(benchmark::kMillisecond);

// Sharded parallel apply pipeline (docs/service.md "Sharded parallel
// apply"): same stream, pre-framed into IngestLines and pushed through
// apply_batch with 8 shards and Arg worker threads. Output is
// byte-identical to BM_ServiceThroughput by contract; the delta here is
// wall-clock only. On a single-core container the extra threads are
// pure scheduling overhead — read the numbers with docs/perf.md §7's
// caveat in mind.
void BM_ServiceThroughputSharded(benchmark::State& state) {
  const std::uint32_t nodes = 200;
  const auto events = bench_stream(nodes, 4000, 17);
  std::vector<service::IngestLine> lines;
  lines.reserve(events.size());
  for (const service::Event& event : events) {
    lines.push_back({false, event});
  }
  service::ApplyOptions options;
  options.shards = 8;
  options.threads = static_cast<unsigned>(state.range(0));
  options.window = 256;
  std::uint64_t version = 0;
  for (auto _ : state) {
    service::StateStore store(bench_config(nodes), 11, options);
    version = store.apply_batch(lines);
    benchmark::DoNotOptimize(version);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_ServiceThroughputSharded)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Socket framing: 10^6 lines of ~10 bytes through the daemon's socket
// line source over one Unix-domain connection, at the 4 KiB buffer floor
// and at the 256 KiB default cap. The writer blocks on the kernel socket
// buffer, so the source runs its drain-and-serve cycle at that cap just
// as the daemon's ingest thread does; nothing is parsed or applied.
void BM_SocketSourceLines(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLines = 1000000;
  std::string text;
  text.reserve(kLines * 12);
  for (std::size_t i = 0; i < kLines; ++i) {
    text += "C " + std::to_string(i % 997) + ' ' +
            std::to_string(i % 1009) + '\n';
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("impatience_bm_lines_" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::atomic<bool> stop{false};
  for (auto _ : state) {
    auto source = service::make_socket_source(path, nullptr, cap);
    std::thread writer([&] {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      std::size_t off = 0;
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        while (off < text.size()) {
          const ssize_t n =
              ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
          if (n <= 0) break;
          off += static_cast<std::size_t>(n);
        }
      }
      ::close(fd);
      if (off < text.size()) stop.store(true);  // unblock the reader
    });
    std::size_t served = 0;
    while (served < kLines && source->next_line(stop)) ++served;
    writer.join();
    benchmark::DoNotOptimize(served);
    if (served < kLines) {
      state.SkipWithError("socket feed failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLines));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SocketSourceLines)->Arg(4096)->Arg(256 * 1024)
    ->Unit(benchmark::kMillisecond);

// Copy-on-read image + line serialization: the cost the snapshot thread
// pays while the ingest path keeps running.
void BM_ServiceSnapshot(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  service::StateStore store(bench_config(nodes), 12);
  for (const service::Event& event : bench_stream(nodes, 4000, 18)) {
    store.apply(event);
  }
  for (auto _ : state) {
    std::ostringstream out;
    service::write_image(out, store.image());
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_ServiceSnapshot)->Arg(50)->Arg(200);

// Incremental checkpoint cost: dirty-node delta extraction + delta
// serialization after a burst of events — what the chain writer pays per
// periodic checkpoint instead of a full image.
void BM_SnapshotDelta(benchmark::State& state) {
  const std::uint32_t nodes = 200;
  service::StateStore store(bench_config(nodes), 14);
  const auto events = bench_stream(nodes, 4000, 21);
  for (const service::Event& event : events) store.apply(event);
  store.checkpoint_image();
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int k = 0; k < 64; ++k) {
      store.apply(events[i++ % events.size()]);
    }
    state.ResumeTiming();
    std::ostringstream out;
    service::write_delta(out, store.take_delta());
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_SnapshotDelta)->Unit(benchmark::kMicrosecond);

// End-to-end /metrics scrape over loopback HTTP while a mutator thread
// hammers the store — measures what a monitoring agent experiences
// against a busy daemon, lock contention included.
void BM_ServiceMetricsScrape(benchmark::State& state) {
  service::StateStore store(bench_config(50), 13);
  service::ServiceMetrics metrics;
  service::HttpServer server(
      [&](const std::string&) {
        return service::HttpResponse{
            200, "text/plain; version=0.0.4",
            service::render_metrics(store, metrics, 1.0, 0.0)};
      },
      0);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    const auto events = bench_stream(50, 4000, 19);
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      metrics.record_apply_latency(
          static_cast<double>(store.apply(events[i % events.size()]) % 97));
      ++i;
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::http_get(server.port(), "/metrics").size());
  }
  stop.store(true);
  mutator.join();
  server.stop();
}
BENCHMARK(BM_ServiceMetricsScrape)->Unit(benchmark::kMicrosecond);

}  // namespace
