#include "server/frame_server.h"

#include <sys/socket.h>

#include <utility>

#include "common/failpoint.h"
#include "common/log.h"
#include "net/frame.h"

namespace dpfs::server {

FrameServer::FrameServer(Options options, Dispatch dispatch)
    : options_(std::move(options)),
      dispatch_(std::move(dispatch)),
      bad_requests_(
          metrics::GetCounter(options_.metric_prefix + ".bad_requests")),
      busy_rejects_(
          metrics::GetCounter(options_.metric_prefix + ".busy_rejects")),
      sessions_accepted_(
          metrics::GetCounter(options_.metric_prefix + ".sessions_accepted")),
      errors_(metrics::GetCounter(options_.metric_prefix + ".errors")),
      inflight_sessions_(
          metrics::GetGauge(options_.metric_prefix + ".inflight_sessions")) {
  std::vector<net::MessageType> served = {net::MessageType::kPing,
                                          net::MessageType::kMetrics};
  served.insert(served.end(), options_.opcodes.begin(),
                options_.opcodes.end());
  for (const net::MessageType type : served) {
    const auto op = static_cast<std::size_t>(type);
    const std::string name(net::MessageTypeName(type));
    requests_[op] =
        &metrics::GetCounter(options_.metric_prefix + ".requests." + name);
    service_time_us_[op] = &metrics::GetHistogram(
        options_.metric_prefix + ".service_time_us." + name);
  }
}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start() {
  DPFS_ASSIGN_OR_RETURN(listener_, net::TcpListener::Bind(options_.port));
  endpoint_ = {"127.0.0.1", listener_.port()};
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void FrameServer::StopAccepting() {
  stopping_.store(true, std::memory_order_relaxed);
  listener_.Close();  // unblocks the accept thread
}

void FrameServer::Stop() {
  StopAccepting();
  if (accept_thread_.joinable()) accept_thread_.join();
  // No session starts from here on. Unblock the live ones and take every
  // joinable handle; a session ending meanwhile files an empty one.
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    for (auto& [id, session] : sessions_) {
      ::shutdown(session.fd, SHUT_RDWR);  // unblocks RecvFrame
      threads.push_back(std::move(session.thread));
    }
    for (std::thread& thread : finished_) threads.push_back(std::move(thread));
    finished_.clear();
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

void FrameServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<net::TcpSocket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!stopping_.load(std::memory_order_relaxed)) {
        DPFS_LOG_WARN << options_.metric_prefix << " accept failed: "
                      << accepted.status().ToString();
      }
      return;
    }
    sessions_accepted_.Add();
    std::vector<std::thread> finished;
    {
      MutexLock lock(mu_);
      finished.swap(finished_);
      // Every live session counts against the cap, busy-rejected ones
      // still waiting for their one request included.
      const bool reject_busy = options_.max_sessions > 0 &&
                               sessions_.size() >= options_.max_sessions;
      const std::uint64_t id = next_session_++;
      LiveSession& session = sessions_[id];
      session.fd = accepted.value().fd();
      // Started under mu_, so the entry holds the handle before the
      // session can retire it.
      session.thread = std::thread(
          [this, id, reject_busy,
           socket = std::move(accepted).value()]() mutable {
            Session(id, std::move(socket), reject_busy);
          });
    }
    for (std::thread& thread : finished) thread.join();
  }
}

void FrameServer::Session(std::uint64_t id, net::TcpSocket socket,
                          bool reject_busy) {
  Serve(socket, reject_busy);
  {
    MutexLock lock(mu_);
    const auto it = sessions_.find(id);
    finished_.push_back(std::move(it->second.thread));
    sessions_.erase(it);
  }
  // Only now may the fd number be reused: Stop() can no longer reach it.
  socket.Close();
}

void FrameServer::Serve(net::TcpSocket& socket, bool reject_busy) {
  if (!reject_busy && options_.session_failpoint != nullptr) {
    // kBusy simulates §4.2's overloaded server without needing
    // max_sessions pressure (busy-storm chaos schedules).
    if (const auto fp = failpoint::Check(options_.session_failpoint);
        fp.has_value() && fp->action == failpoint::Action::kBusy) {
      reject_busy = true;
    }
  }
  net::FrameBuffer frame;
  if (reject_busy) {
    // §4.2's overloaded server: answer one request with "busy" so the
    // client backs off and retries, then drop the session.
    busy_rejects_.Add();
    if (net::RecvFrame(socket, frame).ok()) {
      // dpfs:unchecked(best-effort courtesy reply before dropping the
      // session; the client treats a vanished connection the same way)
      (void)net::SendFrame(
          socket, {net::EncodeReply(
                      ResourceExhaustedError("server busy, retry later"))});
    }
    return;
  }

  // Serving for real from here: show up in the inflight_sessions gauge
  // (busy-rejected sessions above deliberately don't).
  inflight_sessions_.Add(1);
  struct InflightGuard {
    metrics::Gauge& gauge;
    ~InflightGuard() { gauge.Sub(1); }
  } inflight_guard{inflight_sessions_};

  Bytes scratch;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const Status received = net::RecvFrame(socket, frame);
    if (!received.ok()) {
      // kUnavailable at a frame boundary is a normal client disconnect.
      if (received.code() != StatusCode::kUnavailable) {
        errors_.Add();
        DPFS_LOG_DEBUG << options_.metric_prefix
                       << " session recv: " << received.ToString();
      }
      return;
    }
    Reply reply = HandleRequest(frame.bytes(), scratch);
    if (auto fp = failpoint::Check(options_.reply_failpoint)) {
      if (fp->action == failpoint::Action::kDisconnect) {
        // Drop the session with the reply unsent: the client sees a dead
        // connection after a request it cannot know the fate of.
        errors_.Add();
        return;
      }
      if (fp->action == failpoint::Action::kReturnError) {
        errors_.Add();
        reply = {net::EncodeReply(fp->status)};
      }
    }
    const Status sent = net::SendFrame(socket, {reply.head, reply.tail});
    if (!sent.ok()) {
      errors_.Add();
      return;
    }
  }
}

FrameServer::Reply FrameServer::HandleRequest(ByteSpan frame,
                                              Bytes& scratch) {
  const Result<net::DecodedRequest> decoded = net::DecodeRequest(frame);
  if (!decoded.ok()) {
    errors_.Add();
    bad_requests_.Add();
    return {net::EncodeReply(decoded.status())};
  }
  const net::MessageType type = decoded.value().type;
  const auto op = static_cast<std::size_t>(type);
  if (requests_[op] == nullptr) {
    // Decodes fine but belongs to the other kind of server (a kMeta*
    // opcode at an I/O server, or an I/O opcode at the metadata server).
    errors_.Add();
    bad_requests_.Add();
    const bool meta =
        op >= static_cast<std::size_t>(net::MessageType::kMetaRegisterServer);
    return {net::EncodeReply(
        ProtocolError(std::string(net::MessageTypeName(type)) +
                      (meta ? " is a metadata opcode" : " is an I/O opcode") +
                      "; not served by " + options_.metric_prefix))};
  }
  requests_[op]->Add();
  metrics::ScopedTimer timer(*service_time_us_[op]);
  switch (type) {
    case net::MessageType::kPing:
      return {net::EncodeReply(Status::Ok())};
    case net::MessageType::kMetrics: {
      // The full text exposition of the process-wide registry (every
      // component, not just this server's counters).
      BinaryWriter reply(net::EncodeReply(Status::Ok()));
      reply.WriteString(metrics::Registry::Global().TextSnapshot());
      return {std::move(reply).TakeBuffer()};
    }
    default: {
      BinaryReader reader(decoded.value().body);
      return dispatch_(type, reader, scratch);
    }
  }
}

}  // namespace dpfs::server
