// Byte-identity goldens for the spill codec.  Both pin what the format's
// definition fixes, so any change to the encoders, the decoders or the
// framing that is meant to be invisible must leave them untouched:
//
//   (a) the FNV-1a of the spill file of a small fixed run (the overload
//       profile), which must be the same at shards {1, 4} x threads
//       {1, 4}: the encoders' bytes, mode choices and tie-breaks, and the
//       file's canonical block order;
//   (b) one hash over how both readers treat every one-byte flip and every
//       truncation of a real spill file, plus every flip inside a block
//       payload with the payload CRC resealed, so the column decoders
//       themselves see the damage: SpillSet::load() and SpillSet::open()
//       each contribute whether they threw, their SpillReadStats and a
//       digest of every field of every record they returned.  This is the
//       decoders' accept/reject set, and what they make of what they
//       accept.
//
// A deliberate format change re-blesses them: the failure messages print
// the fresh values.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "engine/engine.h"
#include "faults/fault_schedule.h"
#include "telemetry/crc32c.h"
#include "telemetry/record_schema.h"
#include "telemetry/spill_format.h"
#include "workload/scenario.h"

namespace vstream::telemetry {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

struct Fnv {
  std::uint64_t h = kFnvOffset;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * kFnvPrime;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ static_cast<unsigned char>(v >> (8 * i))) * kFnvPrime;
    }
  }
};

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void put_le32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// Every field of every record, in schema order, session_id included.
template <typename Rec>
void digest_records(Fnv& fnv, const std::vector<Rec>& recs) {
  fnv.u64(recs.size());
  for (const Rec& rec : recs) {
    for_each_column<Rec>([&](const auto& col) {
      const auto& v = col.get(rec);
      using T = std::remove_cvref_t<decltype(v)>;
      if constexpr (std::is_same_v<T, std::string>) {
        fnv.u64(v.size());
        fnv.bytes(v.data(), v.size());
      } else if constexpr (std::is_same_v<T, double>) {
        fnv.u64(std::bit_cast<std::uint64_t>(v));
      } else {
        fnv.u64(static_cast<std::uint64_t>(v));
      }
    });
  }
}

void digest_stats(Fnv& fnv, const SpillReadStats& s) {
  for (const std::uint64_t v : {s.blocks_ok, s.blocks_skipped, s.bytes_salvaged,
                                s.bytes_skipped, s.torn_tail_bytes,
                                s.commit_frames}) {
    fnv.u64(v);
  }
}

/// Fold what load() and open() make of `set` into `fnv`.
void digest_reads(Fnv& fnv, const SpillSet& set) {
  try {
    SpillReadStats stats;
    const Dataset data = set.load(&stats, 1);
    fnv.u64(1);
    digest_stats(fnv, stats);
    for_each_stream([&](std::size_t, const auto& recs) {
      digest_records(fnv, recs);
    }, data);
  } catch (const std::exception&) {
    fnv.u64(2);
  }
  try {
    SpillReadStats stats;
    const auto stream = set.open(&stats);
    fnv.u64(3);
    while (auto group = stream->next()) {
      fnv.u64(group->session_id);
      for_each_stream([&](std::size_t, const auto& recs) {
        digest_records(fnv, recs);
      }, *group);
    }
    digest_stats(fnv, stats);
  } catch (const std::exception&) {
    fnv.u64(4);
  }
}

class SpillGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs the tests as parallel
    // processes.
    dir_ = std::filesystem::temp_directory_path() /
           ("vstream_spill_golden_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(SpillGoldenTest, SmallOverloadRunWritesPinnedBytes) {
  // test_scenario() (300 sessions) under the overload fault profile.  The
  // file is in canonical order, so neither the partition nor the worker
  // count may move a byte of it.
  constexpr std::uint64_t kGolden = 0x70883B8C0C1EC1E9ull;
  for (const std::size_t shards : {1, 4}) {
    for (const std::size_t threads : {1, 4}) {
      engine::RunOptions options;
      options.shards = shards;
      options.threads = threads;
      options.faults = *faults::FaultSchedule::named("overload");
      options.telemetry_spill_dir =
          (dir_ / ("s" + std::to_string(shards) + "t" +
                   std::to_string(threads)))
              .string();
      const std::string bytes = read_all(
          engine::run_simulation(workload::test_scenario(), options)
              .spill.file());
      Fnv fnv;
      fnv.bytes(bytes.data(), bytes.size());
      EXPECT_EQ(fnv.h, kGolden)
          << "shards=" << shards << " threads=" << threads
          << "; fresh value: 0x" << std::hex << std::uppercase << fnv.h
          << "ull";
    }
  }
}

TEST_F(SpillGoldenTest, EveryMutationOfARealFileReadsAsPinned) {
  // A committed prefix of a real file, small enough to mutate
  // exhaustively: the first four blocks of shard 0 of this suite's run as
  // the id-modulo partition once wrote it, with their commit frames (3 to
  // 18 snapshots each).  Its sessions, 36, 24, 88 and 40, are not in id
  // order, so the readers' sort of the block index is exercised too.
  const std::string clean = read_all(std::filesystem::path(
      VSTREAM_TELEMETRY_FIXTURES "/spill_mutation_input.vspill"));
  ASSERT_EQ(clean.size(), 3'129u);
  std::vector<SpillBlockRef> index;
  {
    SpillReader reader(VSTREAM_TELEMETRY_FIXTURES
                       "/spill_mutation_input.vspill");
    index = reader.index();
  }
  ASSERT_EQ(index.size(), 4u);

  const std::filesystem::path path = dir_ / "mutant.vspill";
  SpillSet set;
  set.add_file(path);
  Fnv fnv;
  fnv.u64(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0xA5);
    write_all(path, bytes);
    digest_reads(fnv, set);
  }
  for (std::size_t len = 0; len < clean.size(); ++len) {
    write_all(path, clean.substr(0, len));
    digest_reads(fnv, set);
  }
  for (std::size_t b = 0; b < 4; ++b) {
    const std::size_t payload = index[b].offset + 24;
    std::uint64_t size = 0;
    for (int i = 0; i < 8; ++i) {
      size |= std::uint64_t{static_cast<unsigned char>(
                  clean[index[b].offset + 12 + i])}
              << (8 * i);
    }
    for (std::size_t i = 0; i < size; ++i) {
      std::string bytes = clean;
      bytes[payload + i] = static_cast<char>(bytes[payload + i] ^ 0xA5);
      put_le32(bytes, payload + size, crc32c(bytes.data() + payload, size));
      write_all(path, bytes);
      digest_reads(fnv, set);
    }
  }
  EXPECT_EQ(fnv.h, 0x649AD6177324F0E4ull)
      << "over " << clean.size() << " bytes; fresh value: 0x" << std::hex
      << std::uppercase << fnv.h << "ull";
}

}  // namespace
}  // namespace vstream::telemetry
