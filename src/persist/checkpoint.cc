#include "persist/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "persist/codec.h"

namespace seraph {
namespace persist {
namespace {

namespace fs = std::filesystem;

Status IoError(const std::string& what, const std::string& path) {
  return Status::Unavailable("checkpoint io: " + what + " '" + path +
                             "': " + std::strerror(errno));
}

// fsync a path (file or directory). Directory fsync makes the rename
// itself durable, not just the file contents.
Status SyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open for fsync", path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IoError("fsync", path);
  return Status::OK();
}

std::string SegmentFileName(SegmentRole role, size_t stream_index,
                            uint64_t seq) {
  switch (role) {
    case SegmentRole::kQueries:
      return "queries-" + std::to_string(seq) + ".seg";
    case SegmentRole::kOffsets:
      return "offsets-" + std::to_string(seq) + ".seg";
    case SegmentRole::kDeadLetters:
      return "dlq-" + std::to_string(seq) + ".seg";
    case SegmentRole::kStream:
      return "stream-" + std::to_string(stream_index) + "-" +
             std::to_string(seq) + ".seg";
  }
  return "unknown-" + std::to_string(seq) + ".seg";
}

// One finished segment awaiting its manifest entry.
struct PendingSegment {
  SegmentRole role;
  std::string file;  // Name within the checkpoint dir.
  std::string contents;
};

std::string EncodeQueriesSegment(const EngineCheckpoint& image) {
  std::string out;
  AppendFileHeader(&out);
  Encoder meta;
  meta.PutI64(image.clock.millis());
  meta.PutBool(image.clock_started);
  meta.PutI64(image.evaluations_run);
  meta.PutU32(static_cast<uint32_t>(image.queries.size()));
  AppendFrame(meta.buffer(), &out);
  for (const QueryCheckpoint& query : image.queries) {
    Encoder enc;
    WriteQueryCheckpoint(query, &enc);
    AppendFrame(enc.buffer(), &out);
  }
  return out;
}

std::string EncodeStreamSegment(const std::string& name,
                                const std::vector<StreamElement>& elements) {
  std::string out;
  AppendFileHeader(&out);
  Encoder meta;
  meta.PutString(name);
  meta.PutU32(static_cast<uint32_t>(elements.size()));
  AppendFrame(meta.buffer(), &out);
  // Frame-per-element: a torn tail corrupts one frame, and the CRC of
  // every earlier element still verifies (recovery rejects the file
  // either way — the manifest is the commit point — but inspection can
  // localize the damage).
  for (const StreamElement& element : elements) {
    Encoder enc;
    WriteStreamElement(element, &enc);
    AppendFrame(enc.buffer(), &out);
  }
  return out;
}

}  // namespace

std::string ManifestFileName(uint64_t seq) {
  return "MANIFEST-" + std::to_string(seq);
}

bool ParseManifestFileName(const std::string& name, uint64_t* seq) {
  constexpr std::string_view kPrefix = "MANIFEST-";
  if (name.size() <= kPrefix.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.keep < 1) options_.keep = 1;
}

void CheckpointManager::BindQueue(std::string consumer,
                                  const EventQueue* queue) {
  queues_.emplace_back(std::move(consumer), queue);
}

void CheckpointManager::BindDeadLetter(const DeadLetterQueue* dead_letter) {
  dead_letter_ = dead_letter;
}

void CheckpointManager::ManageRetention(EventQueue* queue) {
  retention_queues_.push_back(queue);
  // Until the next commit nothing new is durable. The horizon starts at
  // the position the newest restored checkpoint already covers — the
  // minimum bound-consumer offset (zero on a cold start, so a fresh
  // replay from generation 0 stays possible; the restore point after
  // RecoverAll, so a restored run need not retain the prefix it will
  // never read again). Call this AFTER Subscribe/RecoverAll.
  size_t horizon = static_cast<size_t>(-1);
  bool any_consumer = false;
  for (const auto& [consumer, bound] : queues_) {
    if (bound != queue) continue;
    any_consumer = true;
    horizon = std::min(horizon, queue->OffsetOf(consumer).value_or(0));
  }
  if (!any_consumer) horizon = 0;
  queue->SetCheckpointHorizon(horizon);
}

void CheckpointManager::AdvanceRetention() {
  for (EventQueue* queue : retention_queues_) {
    // The horizon is the smallest offset the just-committed generation
    // recorded for this queue's consumers: recovery re-seeks there, so
    // everything below it is never read again. Offsets were captured by
    // CommitImage on this same (batch-barrier) thread, so re-reading
    // them here observes the committed values.
    size_t horizon = static_cast<size_t>(-1);
    bool any_consumer = false;
    for (const auto& [consumer, bound] : queues_) {
      if (bound != queue) continue;
      any_consumer = true;
      horizon = std::min(horizon, queue->OffsetOf(consumer).value_or(0));
    }
    if (!any_consumer) horizon = 0;
    queue->SetCheckpointHorizon(horizon);
    queue->TrimCommitted();
  }
}

void CheckpointManager::AttachTo(ContinuousEngine* engine) {
  engine->SetCheckpointCallback(
      [this, engine]() { return Checkpoint(engine); });
}

Status CheckpointManager::WriteFileAtomic(const std::string& final_path,
                                          const std::string& contents) {
  SERAPH_FAULT_POINT("checkpoint.write");
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return IoError("open", tmp_path);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) return IoError("write", tmp_path);
  }
  if (options_.fsync) SERAPH_RETURN_IF_ERROR(SyncPath(tmp_path));
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return IoError("rename", final_path);
  }
  if (options_.fsync) {
    SERAPH_RETURN_IF_ERROR(SyncPath(options_.dir));
  }
  return Status::OK();
}

Status CheckpointManager::CommitImage(const EngineCheckpoint& image,
                                      uint64_t seq, uint64_t* bytes_written) {
  std::vector<PendingSegment> segments;
  segments.push_back({SegmentRole::kQueries,
                      SegmentFileName(SegmentRole::kQueries, 0, seq),
                      EncodeQueriesSegment(image)});
  size_t stream_index = 0;
  for (const auto& [name, elements] : image.streams) {
    segments.push_back(
        {SegmentRole::kStream,
         SegmentFileName(SegmentRole::kStream, stream_index, seq),
         EncodeStreamSegment(name, elements)});
    ++stream_index;
  }
  {
    std::string out;
    AppendFileHeader(&out);
    Encoder meta;
    meta.PutU32(static_cast<uint32_t>(queues_.size()));
    AppendFrame(meta.buffer(), &out);
    for (const auto& [consumer, queue] : queues_) {
      Encoder enc;
      enc.PutString(consumer);
      // An unbound consumer (never polled) has no committed position;
      // recovery re-subscribes it at 0, which is what a fresh consumer
      // would do anyway. The has-offset bit preserves the distinction.
      std::optional<size_t> offset = queue->OffsetOf(consumer);
      enc.PutBool(offset.has_value());
      enc.PutU64(static_cast<uint64_t>(offset.value_or(0)));
      AppendFrame(enc.buffer(), &out);
    }
    segments.push_back({SegmentRole::kOffsets,
                        SegmentFileName(SegmentRole::kOffsets, 0, seq),
                        std::move(out)});
  }
  {
    std::string out;
    AppendFileHeader(&out);
    Encoder meta;
    const size_t entries =
        dead_letter_ == nullptr ? 0 : dead_letter_->entries().size();
    meta.PutU32(static_cast<uint32_t>(entries));
    AppendFrame(meta.buffer(), &out);
    if (dead_letter_ != nullptr) {
      for (const DeadLetterEntry& entry : dead_letter_->entries()) {
        Encoder enc;
        WriteDeadLetterEntry(entry, &enc);
        AppendFrame(enc.buffer(), &out);
      }
    }
    segments.push_back({SegmentRole::kDeadLetters,
                        SegmentFileName(SegmentRole::kDeadLetters, 0, seq),
                        std::move(out)});
  }

  uint64_t total_bytes = 0;
  for (const PendingSegment& segment : segments) {
    SERAPH_RETURN_IF_ERROR(
        WriteFileAtomic(options_.dir + "/" + segment.file, segment.contents));
    total_bytes += segment.contents.size();
  }

  // The manifest commits the generation: it lists every segment with its
  // size and whole-file CRC, so recovery can validate a generation
  // without trusting anything but the manifest frame's own checksum.
  std::string manifest;
  AppendFileHeader(&manifest);
  Encoder enc;
  enc.PutU64(seq);
  enc.PutU32(static_cast<uint32_t>(segments.size()));
  for (const PendingSegment& segment : segments) {
    enc.PutU8(static_cast<uint8_t>(segment.role));
    enc.PutString(segment.file);
    enc.PutU64(segment.contents.size());
    enc.PutU32(Crc32(segment.contents));
  }
  AppendFrame(enc.buffer(), &manifest);
  total_bytes += manifest.size();

  SERAPH_FAULT_POINT("checkpoint.rename");
  SERAPH_RETURN_IF_ERROR(
      WriteFileAtomic(options_.dir + "/" + ManifestFileName(seq), manifest));
  *bytes_written = total_bytes;
  return Status::OK();
}

void CheckpointManager::GarbageCollect(uint64_t newest_seq) {
  // Keep the newest `keep` generations; older segments and manifests go.
  // Manifests are deleted first so a GC crash can only leave orphaned
  // segments (harmless), never a manifest whose segments are gone.
  if (newest_seq < static_cast<uint64_t>(options_.keep)) return;
  const uint64_t min_kept = newest_seq - static_cast<uint64_t>(options_.keep)
                            + 1;
  std::error_code ec;
  std::vector<fs::path> doomed_manifests;
  std::vector<fs::path> doomed_segments;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (ParseManifestFileName(name, &seq)) {
      if (seq < min_kept) doomed_manifests.push_back(entry.path());
      continue;
    }
    // Segments end with "-<seq>.seg"; orphaned .tmp files from a crashed
    // writer are always removable.
    if (name.size() > 4 && name.ends_with(".tmp")) {
      doomed_segments.push_back(entry.path());
      continue;
    }
    if (name.size() > 4 && name.ends_with(".seg")) {
      size_t dash = name.rfind('-');
      if (dash == std::string::npos) continue;
      uint64_t file_seq = 0;
      bool numeric = dash + 1 < name.size() - 4;
      for (size_t i = dash + 1; numeric && i < name.size() - 4; ++i) {
        if (name[i] < '0' || name[i] > '9') numeric = false;
        else file_seq = file_seq * 10 + static_cast<uint64_t>(name[i] - '0');
      }
      if (numeric && file_seq < min_kept) {
        doomed_segments.push_back(entry.path());
      }
    }
  }
  for (const fs::path& path : doomed_manifests) fs::remove(path, ec);
  for (const fs::path& path : doomed_segments) fs::remove(path, ec);
}

Status CheckpointManager::Checkpoint(ContinuousEngine* engine) {
  MetricsRegistry& registry = engine->metrics();
  Histogram* duration =
      registry.HistogramFor("seraph_checkpoint_duration_micros");
  Histogram* bytes = registry.HistogramFor("seraph_checkpoint_bytes");
  Counter* total = registry.CounterFor("seraph_checkpoint_total");
  Counter* failures = registry.CounterFor("seraph_checkpoint_failures_total");
  // Checkpoint-age health surface: the generation on disk and when it was
  // committed, so a scraper can alert on a stalling checkpoint cadence
  // (age = now − last_write).
  Gauge* last_seq_gauge = registry.GaugeFor("seraph_checkpoint_last_seq");
  Gauge* last_write_gauge =
      registry.GaugeFor("seraph_checkpoint_last_write_micros");

  StageTimer timer(/*tracer=*/nullptr, "checkpoint", "persist", duration);
  Status written = [&]() -> Status {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (ec) {
      return Status::Unavailable("checkpoint io: create dir '" +
                                 options_.dir + "': " + ec.message());
    }
    if (!seq_initialized_) {
      // Resume the sequence past any generations already in the dir (a
      // restarted process must not overwrite its predecessor's files).
      uint64_t max_seq = 0;
      for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
        uint64_t seq = 0;
        if (ParseManifestFileName(entry.path().filename().string(), &seq)) {
          max_seq = std::max(max_seq, seq);
        }
      }
      next_seq_ = max_seq + 1;
      seq_initialized_ = true;
    }
    const uint64_t seq = next_seq_;
    uint64_t bytes_written = 0;
    SERAPH_RETURN_IF_ERROR(
        CommitImage(engine->CaptureCheckpoint(), seq, &bytes_written));
    ++next_seq_;
    last_seq_ = seq;
    bytes->Record(static_cast<int64_t>(bytes_written));
    GarbageCollect(seq);
    return Status::OK();
  }();
  timer.Stop();
  if (written.ok()) {
    ++checkpoints_written_;
    total->Increment();
    last_seq_gauge->Set(static_cast<int64_t>(last_seq_));
    last_write_gauge->Set(TraceRecorder::NowMicros());
    // The new generation is the commit point: offsets below it are now
    // durably covered, so managed queues may trim up to them.
    AdvanceRetention();
  } else {
    ++checkpoint_failures_;
    failures->Increment();
  }
  return written;
}

}  // namespace persist
}  // namespace seraph
