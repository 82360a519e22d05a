#include "impatience/service/state_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "impatience/util/errors.hpp"

namespace impatience::service {
namespace {

StoreConfig small_config() {
  StoreConfig config;
  config.num_nodes = 16;
  config.num_items = 12;
  config.cache_capacity = 3;
  return config;
}

std::vector<Event> workload(std::uint64_t events, std::uint64_t seed,
                            double crash_fraction = 0.0) {
  StreamConfig config;
  config.events = events;
  config.num_nodes = 16;
  config.num_items = 12;
  config.crash_fraction = crash_fraction;
  config.quit = false;
  return generate_stream(config, seed);
}

std::string serialized(const StateStore& store) {
  std::ostringstream out;
  write_image(out, store.image());
  return out.str();
}

class TempFile {
 public:
  explicit TempFile(const char* stem) {
    path_ = ::testing::TempDir() + stem + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".snap";
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ServiceStateStore, FreshInitIsSeededAndSticky) {
  StateStore a(small_config(), 42);
  StateStore b(small_config(), 42);
  StateStore c(small_config(), 43);
  EXPECT_EQ(serialized(a), serialized(b));
  EXPECT_NE(serialized(a), serialized(c));
  EXPECT_EQ(a.version(), 0u);

  // Every item has at least one replica (seeders pin 0..num_items-1).
  const auto counts = a.replica_counts();
  for (long count : counts) EXPECT_GE(count, 1);
  const auto image = a.image();
  for (ItemId i = 0; i < 12; ++i) {
    EXPECT_EQ(image.nodes[i].sticky, static_cast<std::int64_t>(i));
  }
}

TEST(ServiceStateStore, VersionIsMonotonicPerMutation) {
  StateStore store(small_config(), 1);
  std::uint64_t last = store.version();
  for (const Event& event : workload(300, 5)) {
    const std::uint64_t version = store.apply(event);
    EXPECT_GT(version, last);  // every event bumps at least once
    last = version;
  }
  EXPECT_EQ(store.version(), last);
  // Replica writes bump beyond the per-event tick.
  EXPECT_GE(last, store.counters().events_applied);
}

TEST(ServiceStateStore, CopyOnReadImageIsStable) {
  StateStore store(small_config(), 2);
  for (const Event& event : workload(200, 6)) store.apply(event);
  const StateImage image = store.image();
  const std::uint64_t version_at_copy = image.version;
  // Mutating the store after the copy must not affect the image.
  for (const Event& event : workload(100, 7)) store.apply(event);
  EXPECT_EQ(image.version, version_at_copy);
  EXPECT_GT(store.version(), version_at_copy);
  std::ostringstream a, b;
  write_image(a, image);
  write_image(b, image);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ServiceStateStore, AppliesTheCoreSemantics) {
  StateStore store(small_config(), 3);
  std::uint64_t applied = 0;
  for (const Event& event : workload(2000, 8)) {
    store.apply(event);
    ++applied;
  }
  const StoreCounters k = store.counters();
  EXPECT_EQ(k.events_applied, applied);
  EXPECT_GT(k.contacts, 0u);
  EXPECT_GT(k.requests_created, 0u);
  EXPECT_GT(k.fulfillments, 0u);
  EXPECT_GT(k.total_gain, 0.0);
  EXPECT_GT(k.replicas_written, 0);
  // Served + still-pending = created.
  EXPECT_EQ(k.immediate_fulfillments + k.fulfillments + k.requests_pending,
            k.requests_created);
  EXPECT_TRUE(store.mandate_conservation_ok());
  EXPECT_GT(store.delay_percentile(0.99), 0.0);
  EXPECT_GE(store.delay_percentile(0.99), store.delay_percentile(0.50));
}

TEST(ServiceStateStore, OutOfRangeEventsCountMalformedNotCrash) {
  StateStore store(small_config(), 4);
  store.apply({Event::Kind::contact, 0, 99, 1, 0});
  store.apply({Event::Kind::request, 0, 1, 0, 99});
  store.apply({Event::Kind::crash, 0, 99, 0, 0});
  EXPECT_EQ(store.counters().events_malformed, 3u);
  EXPECT_EQ(store.seq(), 3u);  // stream position still advances
}

TEST(ServiceStateStore, SnapshotRoundTripsByteExactly) {
  StateStore store(small_config(), 5);
  for (const Event& event : workload(800, 9, 0.01)) store.apply(event);
  TempFile file("roundtrip");
  store.save_snapshot(file.path());
  const StateImage loaded = load_image(file.path());
  std::ostringstream a, b;
  write_image(a, store.image());
  write_image(b, loaded);
  EXPECT_EQ(a.str(), b.str());
}

// Golden files (tests/service/golden/) pin the snapshot and delta formats
// byte for byte. They were written by the ostream + %.17g writer the
// format first shipped with, so a drift that stays self-consistent — say
// shortest round-trip doubles instead of %.17g — still fails here, and
// files already on disk keep restoring. The fixture store covers every
// record shape: crashes, pending requests, mandates, unpinned nodes
// (sticky -1) and non-integer doubles.
StoreConfig golden_config() {
  StoreConfig config = small_config();  // 16 nodes, 12 sticky seeders
  config.utility_spec = "power:alpha=0.5";
  return config;
}

/// The store records whole-slot delays; the format stores them as
/// doubles, so the fixture appends fractional ones to pin that path too.
void add_fractional_delays(std::vector<double>& delays) {
  for (double d : {0.1, 2.5, 1.0 / 3.0, 1e-7, 6.02214076e23}) {
    delays.push_back(d);
  }
}

struct GoldenFixture {
  StateImage image;
  StateDelta delta;
};

GoldenFixture golden_fixture() {
  const auto events = workload(300, 21, 0.02);
  StateStore store(golden_config(), 17);
  for (std::size_t i = 0; i < 400; ++i) store.apply(events[i]);
  GoldenFixture g;
  g.image = store.checkpoint_image();
  add_fractional_delays(g.image.recent_delays);
  for (std::size_t i = 400; i < 408; ++i) store.apply(events[i]);
  g.delta = store.take_delta();
  add_fractional_delays(g.delta.recent_delays);
  std::ostringstream sink;
  g.delta.parent_checksum = write_image(sink, g.image);
  return g;
}

std::string golden_text(const char* name) {
  const std::string path = std::string(IMPATIENCE_SERVICE_GOLDEN_DIR) + "/" +
                           name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ServiceStateStore, WriterReproducesGoldenSnapshotBytes) {
  const GoldenFixture g = golden_fixture();
  EXPECT_GT(g.image.faults.crashes, 0u);
  bool unpinned = false, pending = false, mandates = false;
  for (const auto& ni : g.image.nodes) {
    unpinned |= ni.sticky == -1;
    pending |= !ni.pending.empty();
    mandates |= !ni.mandates.empty();
  }
  EXPECT_TRUE(unpinned && pending && mandates);
  EXPECT_FALSE(g.delta.nodes.empty());
  EXPECT_LT(g.delta.nodes.size(), g.image.nodes.size());

  std::ostringstream image, delta;
  write_image(image, g.image);
  write_delta(delta, g.delta);
  EXPECT_EQ(image.str(), golden_text("store_image.snap"));
  EXPECT_EQ(delta.str(), golden_text("store_delta.snap"));
}

TEST(ServiceStateStore, GoldenSnapshotsRoundTripThroughLoad) {
  const std::string image_text = golden_text("store_image.snap");
  std::istringstream image_in(image_text);
  std::ostringstream image_out;
  write_image(image_out, read_image(image_in));
  EXPECT_EQ(image_out.str(), image_text);

  const std::string delta_text = golden_text("store_delta.snap");
  std::istringstream delta_in(delta_text);
  std::ostringstream delta_out;
  write_delta(delta_out, read_delta(delta_in));
  EXPECT_EQ(delta_out.str(), delta_text);
}

// The acceptance criterion: interrupt at an arbitrary event, snapshot,
// restore, replay the tail — the final serialized state must be byte-
// identical to the uninterrupted run, crashes included.
TEST(ServiceStateStore, WarmRestartIsStateIdentical) {
  const auto events = workload(2000, 10, 0.005);
  const std::size_t cut = 900;

  StateStore uninterrupted(small_config(), 6);
  for (const Event& event : events) uninterrupted.apply(event);

  StateStore first(small_config(), 6);
  for (std::size_t i = 0; i < cut; ++i) first.apply(events[i]);
  TempFile file("warmrestart");
  first.save_snapshot(file.path());

  StateStore resumed(small_config(), 6, load_image(file.path()));
  EXPECT_EQ(resumed.seq(), cut);
  for (std::size_t i = cut; i < events.size(); ++i) resumed.apply(events[i]);

  EXPECT_EQ(serialized(uninterrupted), serialized(resumed));
  EXPECT_TRUE(resumed.mandate_conservation_ok());
}

// SIGKILL mid-snapshot leaves `<path>.tmp` garbage while the atomic
// rename never replaced `<path>`: loading must ignore the temp file and
// come back from the last consistent snapshot.
TEST(ServiceStateStore, RestoreFallsBackPastTornTempFile) {
  StateStore store(small_config(), 7);
  const auto events = workload(600, 11);
  for (std::size_t i = 0; i < 300; ++i) store.apply(events[i]);
  TempFile file("tornsnap");
  store.save_snapshot(file.path());
  const std::string consistent = serialized(store);

  // Simulate the torn write: a half-serialized temp next to the good file.
  {
    std::ofstream torn(file.path() + ".tmp");
    torn << "impatience.replicationd_snapshot/1\nconfig 16 12 3";
  }

  auto restored = StateStore::restore(small_config(), 7, file.path());
  EXPECT_EQ(serialized(*restored), consistent);
  EXPECT_TRUE(restored->mandate_conservation_ok());
}

TEST(ServiceStateStore, TruncatedOrCorruptSnapshotIsRejected) {
  StateStore store(small_config(), 8);
  for (const Event& event : workload(200, 12)) store.apply(event);
  TempFile file("corrupt");
  store.save_snapshot(file.path());

  std::string text;
  {
    std::ifstream in(file.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Truncation: drop the trailer and half the body.
  {
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_THROW(read_image(in), util::IoError);
  }
  // Bit flip inside the body: checksum must catch it.
  {
    std::string flipped = text;
    flipped[text.size() / 3] ^= 1;
    std::istringstream in(flipped);
    EXPECT_THROW(read_image(in), util::IoError);
  }
  // Not a snapshot at all.
  {
    std::istringstream in(std::string("hello world\n"));
    EXPECT_THROW(read_image(in), util::IoError);
  }
  EXPECT_THROW(load_image(file.path() + ".does-not-exist"), util::IoError);
}

TEST(ServiceStateStore, RestoreRefusesMismatchedScenario) {
  StateStore store(small_config(), 9);
  TempFile file("mismatch");
  store.save_snapshot(file.path());

  StoreConfig other = small_config();
  other.cache_capacity = 4;
  EXPECT_THROW(StateStore(other, 9, load_image(file.path())),
               std::invalid_argument);
  // Wrong seed would silently change replay randomness: refused too.
  EXPECT_THROW(StateStore(small_config(), 10, load_image(file.path())),
               std::invalid_argument);
}

TEST(ServiceStateStore, CrashEventsDegradeConservationGracefully) {
  StateStore store(small_config(), 11);
  for (const Event& event : workload(1500, 13, 0.02)) store.apply(event);
  const auto f = store.faults();
  EXPECT_GT(f.crashes, 0u);
  // Losses are accounted, so the invariant still closes.
  EXPECT_TRUE(store.mandate_conservation_ok());
  // Sticky seeders survive crashes: no item can go extinct.
  for (long count : store.replica_counts()) EXPECT_GE(count, 1);
}

TEST(ServiceStateStore, ValidatesConfig) {
  StoreConfig bad = small_config();
  bad.cache_capacity = 0;
  EXPECT_THROW(StateStore(bad, 1), std::invalid_argument);
  bad = small_config();
  bad.utility_spec = "no spaces allowed";
  EXPECT_THROW(StateStore(bad, 1), std::invalid_argument);
  bad = small_config();
  bad.mu = 0.0;
  EXPECT_THROW(StateStore(bad, 1), std::invalid_argument);
}

}  // namespace
}  // namespace impatience::service
