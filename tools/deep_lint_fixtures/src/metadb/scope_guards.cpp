// Seeded violations through metadb's transaction scopes. A Transaction or
// ReadTransaction constructed on a Database holds the Database's mu_, so
// taking a Catalog lock inside a transaction and a read scope under the
// Catalog lock is an AB/BA lock-order cycle; and a scope's begin (waiting for
// that lock) and its commit (a WAL append) are blocking calls, here reachable
// from server::EventLoop::Run. The deep lint must report lock-order-cycle
// and reactor-blocking on this file.
// Fixture only — never compiled; parsed by the textual frontend.

namespace dpfs::metadb {

class Database {
 private:
  mutable SharedMutex mu_;
};

struct Catalog {
  Mutex mu_;
};

class Namespace {
 public:
  void Rename() {
    Transaction txn(*db_);
    MutexLock lock(catalog_.mu_);  // pins Database::mu_ -> Catalog::mu_
  }

  void List() {
    MutexLock lock(catalog_.mu_);
    ReadTransaction read(*db_);  // pins Catalog::mu_ -> Database::mu_
  }

 private:
  std::shared_ptr<Database> db_;
  Catalog catalog_;
};

}  // namespace dpfs::metadb

namespace dpfs::server {

class EventLoop {
 public:
  void Run() {
    metadb::Transaction txn(*db_);
    txn.Commit();
  }

 private:
  std::shared_ptr<metadb::Database> db_;
};

}  // namespace dpfs::server
