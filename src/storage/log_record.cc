#include "storage/log_record.h"

namespace sentinel::storage {

namespace {
void PutBlob(BytesWriter* out, const std::vector<std::uint8_t>& blob) {
  out->PutU32(static_cast<std::uint32_t>(blob.size()));
  out->PutRaw(blob.data(), blob.size());
}

// The length is checked against the bytes left before anything is
// allocated: a corrupt u32 must not ask for up to 4 GiB.
Result<std::vector<std::uint8_t>> ReadBlob(BytesReader* in) {
  auto len = in->ReadU32();
  if (!len.ok()) return len.status();
  if (*len > in->remaining()) {
    return Status::Corruption("log record image extends past end of record");
  }
  std::vector<std::uint8_t> blob(*len);
  SENTINEL_RETURN_NOT_OK(in->ReadRaw(blob.data(), blob.size()));
  return blob;
}

Result<LogRecordType> ReadType(BytesReader* in) {
  auto byte = in->ReadU8();
  if (!byte.ok()) return byte.status();
  if (*byte < static_cast<std::uint8_t>(LogRecordType::kBegin) ||
      *byte > static_cast<std::uint8_t>(LogRecordType::kPageLink)) {
    return Status::Corruption("unknown log record type " +
                              std::to_string(*byte));
  }
  return static_cast<LogRecordType>(*byte);
}
}  // namespace

void LogRecord::Serialize(BytesWriter* out) const {
  out->PutU64(lsn);
  out->PutU64(prev_lsn);
  out->PutU64(txn_id);
  out->PutU8(static_cast<std::uint8_t>(type));
  out->PutU32(rid.page_id);
  out->PutU16(rid.slot);
  PutBlob(out, before);
  PutBlob(out, after);
  out->PutU64(undo_next_lsn);
  out->PutU8(static_cast<std::uint8_t>(undone_type));
}

Result<LogRecord> LogRecord::Deserialize(BytesReader* in) {
  LogRecord rec;
  auto lsn = in->ReadU64();
  if (!lsn.ok()) return lsn.status();
  rec.lsn = *lsn;
  auto prev = in->ReadU64();
  if (!prev.ok()) return prev.status();
  rec.prev_lsn = *prev;
  auto txn = in->ReadU64();
  if (!txn.ok()) return txn.status();
  rec.txn_id = *txn;
  auto type = ReadType(in);
  if (!type.ok()) return type.status();
  rec.type = *type;
  auto page_id = in->ReadU32();
  if (!page_id.ok()) return page_id.status();
  rec.rid.page_id = *page_id;
  auto slot = in->ReadU16();
  if (!slot.ok()) return slot.status();
  rec.rid.slot = *slot;
  auto before = ReadBlob(in);
  if (!before.ok()) return before.status();
  rec.before = std::move(*before);
  auto after = ReadBlob(in);
  if (!after.ok()) return after.status();
  rec.after = std::move(*after);
  auto undo_next = in->ReadU64();
  if (!undo_next.ok()) return undo_next.status();
  rec.undo_next_lsn = *undo_next;
  auto undone = ReadType(in);
  if (!undone.ok()) return undone.status();
  rec.undone_type = *undone;
  return rec;
}

}  // namespace sentinel::storage
