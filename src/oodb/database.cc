#include "oodb/database.h"

namespace sentinel::oodb {

namespace {
// The object and name catalogs live in the first two heap files ever
// created, which deterministically occupy pages 1 and 2 (page 0 is the disk
// manager's header). On reopen the same handles are reused. Files written
// when the OID index was an on-disk B+-tree also hold its pages; they are
// never read again.
constexpr storage::PageId kObjectsFile = 1;
constexpr storage::PageId kNamesFile = 2;
}  // namespace

Database::~Database() { (void)Close(); }

Status Database::Open(const std::string& path_prefix) {
  return Open(path_prefix, Options());
}

Status Database::Open(const std::string& path_prefix, const Options& options) {
  if (engine_ != nullptr) {
    return Status::InvalidArgument("database already open");
  }
  engine_ = std::make_unique<storage::StorageEngine>();
  SENTINEL_RETURN_NOT_OK(engine_->Open(path_prefix, options.storage));

  if (!HasCatalogFiles()) {
    auto objects_file = engine_->CreateHeapFile();
    if (!objects_file.ok()) return objects_file.status();
    auto names_file = engine_->CreateHeapFile();
    if (!names_file.ok()) return names_file.status();
    if (*objects_file != kObjectsFile || *names_file != kNamesFile) {
      return Status::Internal("catalog files not at expected pages");
    }
  }
  objects_ = std::make_unique<PersistenceManager>(engine_.get(), kObjectsFile);
  names_ = std::make_unique<NameManager>(engine_.get(), kNamesFile);
  SENTINEL_RETURN_NOT_OK(objects_->Bootstrap());
  SENTINEL_RETURN_NOT_OK(names_->Bootstrap());
  return Status::OK();
}

bool Database::HasCatalogFiles() {
  // Pages 1 and 2 exist iff a previous open created both catalogs.
  auto page = engine_->buffer_pool()->FetchPage(kNamesFile);
  if (!page.ok()) return false;
  (void)engine_->buffer_pool()->UnpinPage(kNamesFile, false);
  return true;
}

void Database::SimulateCrash() {
  if (engine_ == nullptr) return;
  engine_->SimulateCrash();
  engine_.reset();
  objects_.reset();
  names_.reset();
}

Status Database::Close() {
  if (engine_ == nullptr) return Status::OK();
  Status st = engine_->Close();
  engine_.reset();
  objects_.reset();
  names_.reset();
  return st;
}

Result<TxnId> Database::Begin() { return engine_->Begin(); }

Status Database::Commit(TxnId txn) {
  SENTINEL_RETURN_NOT_OK(engine_->Commit(txn));
  objects_->OnCommit(txn);
  names_->OnCommit(txn);
  return Status::OK();
}

Status Database::Abort(TxnId txn) {
  Status st = engine_->Abort(txn);
  objects_->OnAbort(txn);
  names_->OnAbort(txn);
  return st;
}

}  // namespace sentinel::oodb
