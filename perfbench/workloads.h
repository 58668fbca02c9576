// The three closed-loop workloads. Each drives an in-process ServerRunner
// from the calling thread: every op is one reply-bearing client call issued
// through the public QueueRequest / Flush / AwaitReply / *Reply::Decode
// steps, so the caller blocks until the reply arrives.
#ifndef AF_PERFBENCH_WORKLOADS_H_
#define AF_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "proto/opcodes.h"
#include "proto/types.h"

namespace af::perfbench {

enum class Kind { kPlaySmall, kBridgeXshard, kRecordBulk };

// A workload's request shape. The floor microbenches reuse it so they run
// at exactly the size, encoding and gain the workload sends.
struct Shape {
  const char* name;
  Kind kind;
  int shards;
  int parties;              // connections, one AC each
  AEncodeType encoding;     // client encoding of the AC
  size_t block_frames;      // frames per play request / per record chunk
  size_t chunks_per_op;     // record: 8 KiB chunks per op (one round trip each)
  int gain_db;              // play gain; bridge: floor holder; record: device input gain
  int muted_gain_db;        // bridge: every party but the floor holder
  size_t rotate_blocks;     // bridge: rounds between floor changes
  size_t warmup_ops;        // untimed ops at the end of set-up
  Opcode opcode;            // the op's request opcode

  size_t BlockBytes() const;
  size_t RequestsPerOp() const { return chunks_per_op; }
  size_t FramesPerOp() const { return block_frames * chunks_per_op; }
};

// nullptr for an unknown name.
const Shape* FindShape(const std::string& name);

// Seeded lin16 noise at about -18 dBFS: mid-level audio, so gain and
// mixing do real arithmetic without saturating.
std::vector<int16_t> MakeNoise(std::mt19937_64& rng, size_t frames);
// One request block of noise in the shape's client encoding.
std::vector<uint8_t> MakeBlock(const Shape& shape, std::mt19937_64& rng);

// Per-op client-side timing, nanoseconds.
struct OpSample {
  uint64_t rtt_ns = 0;
  uint64_t queue_ns = 0;   // QueueRequest (encode into the output buffer)
  uint64_t flush_ns = 0;   // Flush (write to the socket)
  uint64_t await_ns = 0;   // AwaitReply (wait + read + frame)
  uint64_t decode_ns = 0;  // *Reply::Decode
  int party = 0;
  bool ok = false;
};

// One server plus its connections, built from a seed. Not thread-safe:
// everything runs on the calling (load) thread.
class Rig {
 public:
  Rig(const Shape& shape, uint64_t seed);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Starts the server, connects, creates ACs, seeds device state and runs
  // the untimed warm-up. False on any failure (reason on stderr).
  bool SetUp();

  // Issues the next op. Between bridge rounds it also rotates the floor
  // and paces the device clock, outside the timed span.
  void Op(OpSample* out);

  // Round-trips a SyncConnection on every connection, so every request
  // queued so far (floor changes included) has been dispatched. Returns
  // the number of requests this adds.
  uint64_t Quiesce();

  // Snapshot through party 0's connection.
  bool Stats(ServerStatsWire* out);

  const Shape& shape() const { return shape_; }
  size_t parties() const { return conns_.size(); }
  AFAudioConn& conn(size_t i) { return *conns_[i]; }
  // Party i's connection lives on shard 0 (the device's owner).
  bool IsLocal(size_t party) const;

  // Requests issued that were not ops (floor changes); they count in
  // requests_dispatched.
  uint64_t extra_requests() const { return extra_requests_; }
  // Distinct parties that have held the bridge floor so far.
  size_t floor_holders_seen() const;
  // Protocol errors delivered asynchronously (should stay 0).
  uint64_t async_errors() const { return async_errors_; }

 private:
  void MakeInputs();
  bool BuildRecordHistory();
  // Steps the manual clock to `frames`, running the device update per step.
  void AdvanceTo(uint64_t frames);
  void RotateFloor();
  void Pace();
  bool CheckTime(ATime t);

  const Shape& shape_;
  std::mt19937_64 rng_;
  std::unique_ptr<ServerRunner> runner_;
  std::vector<std::unique_ptr<AFAudioConn>> conns_;
  std::vector<AC*> acs_;

  // Seeded inputs: sample blocks and play/record start offsets.
  std::vector<std::vector<uint8_t>> blocks_;
  std::vector<uint32_t> offsets_;
  std::vector<uint8_t> source_;         // record: the mu-law input pattern
  std::vector<int16_t> expected_lin_;   // record: what the client must get back

  ATime base_time_ = 0;   // device time the workload's requests are relative to
  ATime last_time_ = 0;   // newest device time seen in a reply
  uint64_t ops_ = 0;
  uint64_t round_ = 0;
  int floor_holder_ = 0;
  std::vector<bool> held_floor_;
  uint64_t extra_requests_ = 0;
  uint64_t async_errors_ = 0;
};

}  // namespace af::perfbench

#endif  // AF_PERFBENCH_WORKLOADS_H_
