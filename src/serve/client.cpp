#include "serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <exception>

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "api/serde.hpp"
#include "util/numeric.hpp"

namespace moela::serve {
namespace {

using util::Json;

}  // namespace

std::optional<std::vector<api::RunReport>> read_run_reply(
    std::string_view line, std::uint64_t id,
    const std::vector<api::RunRequest>& requests, const std::string& where) {
  using Kind = Json::Kind;
  // The envelope's members count as a JsonObject counts them: the last of
  // a repeated key. Entries decode in order until the first one that
  // fails, which then stands for the whole reply; later entries are only
  // checked to be well-formed JSON.
  bool id_matches = false;
  bool ok = false;
  bool have_reports = false;
  std::vector<api::RunReport> reports;
  std::exception_ptr failure;
  std::string scratch;
  try {
    util::JsonReader reader(line);
    if (reader.peek() != Kind::kObject) return std::nullopt;
    reader.begin_object();
    std::string_view key;
    while (reader.next_key(key)) {
      if (key == "event") return std::nullopt;
      if (key == "id") {
        id_matches = false;
        if (reader.peek() != Kind::kNumber) {
          reader.skip();
          continue;
        }
        const Json number = reader.read_number();
        try {
          id_matches = number.as_u64() == id;
        } catch (const util::JsonError&) {
          id_matches = false;  // not a u64 (say 1.5): the tree path throws
        }
      } else if (key == "ok") {
        ok = false;
        if (reader.peek() == Kind::kBool) {
          ok = reader.read_bool();
        } else {
          reader.skip();
        }
      } else if (key == "reports") {
        reports.clear();
        failure = nullptr;
        have_reports = reader.peek() == Kind::kArray;
        if (!have_reports) {
          reader.skip();
          continue;
        }
        reader.begin_array();
        for (std::size_t i = 0; reader.next_element(); ++i) {
          if (failure) {
            reader.skip();
            continue;
          }
          // A run that failed on the daemon is an {"error":...} entry.
          bool has_error = false;
          std::optional<std::string> error;
          const auto read_error = [&](std::string_view name,
                                      util::JsonReader& r) {
            if (name != "error") {
              r.skip();
              return;
            }
            has_error = true;
            error.reset();
            if (r.peek() == Kind::kString) {
              error = std::string(r.read_string(scratch));
            } else {
              r.skip();
            }
          };
          const util::JsonReader::Mark mark = reader.mark();
          try {
            reports.push_back(api::read_report_json(reader, read_error));
          } catch (const util::JsonError&) {
            reader.rewind(mark);
            reader.skip();  // malformed text throws again, out of the loop
            failure = std::current_exception();
          }
          if (!has_error) continue;
          const std::string label =
              i < requests.size() ? requests[i].label_or_default()
                                  : util::dec(i);
          failure = error.has_value()
                        ? std::make_exception_ptr(RemoteError(
                              where + ": run '" + label +
                              "' failed: " + *error))
                        : std::make_exception_ptr(util::JsonError(
                              "Json: wanted string, have another kind"));
        }
      } else {
        reader.skip();
      }
    }
    reader.finish();
  } catch (const util::JsonError&) {
    return std::nullopt;  // malformed text: the tree path reports it
  }
  if (!id_matches || !ok || !have_reports) return std::nullopt;
  if (failure) std::rethrow_exception(failure);
  return reports;
}

Client::~Client() { disconnect(); }

std::string Client::where() const {
  // Every thrown message carries the endpoint so a failure inside a
  // multi-shard batch is attributable to the daemon that caused it.
  return endpoint_.empty() ? std::string("moela_serve client")
                           : "moela_serve client[" + endpoint_ + "]";
}

void Client::connect(const std::string& host, int port) {
  disconnect();
  endpoint_ = host + ":" + util::dec(port);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_text = util::dec(port);
  if (::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &resolved) !=
          0 ||
      resolved == nullptr) {
    throw std::runtime_error(where() + ": cannot resolve '" + host + "'");
  }
  int fd = -1;
  std::string error = "no addresses";
  for (const addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    throw std::runtime_error(where() + ": cannot connect (" + error + ")");
  }
  // transact() can write a cancel line while its run line is still
  // unacknowledged.
  set_no_delay(fd);
  fd_ = fd;
  reader_ = std::make_unique<LineReader>(fd_);
}

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.reset();
}

Json Client::transact(
    Json message, const EventHandler& on_event, api::RunControl* control,
    const std::function<bool(std::string_view line)>& take_final) {
  if (!connected()) {
    throw std::runtime_error(where() + ": not connected");
  }
  std::uint64_t id = 0;
  if (const Json* preset = message.find("id")) {
    id = preset->as_u64();
  } else {
    id = next_id_++;
    message.set("id", id);
  }
  if (!send_json(fd_, message)) {
    throw std::runtime_error(where() + ": connection lost (send)");
  }
  // With a control, reads poll at a short cadence so a stop request can
  // interleave the cancel verb on this same conversation; without one the
  // read blocks as before. The cancel's own ack arrives under a different
  // id and is skipped by the correlation check like any stray line.
  const int timeout_ms = control != nullptr ? 50 : -1;
  bool cancel_sent = false;
  std::string line;
  for (;;) {
    if (control != nullptr && !cancel_sent && control->stop_requested()) {
      Json cancel_message = Json::object();
      cancel_message.set("id", next_id_++)
          .set("verb", "cancel")
          .set("target", id);
      if (!send_json(fd_, cancel_message)) {
        throw std::runtime_error(where() + ": connection lost (cancel)");
      }
      cancel_sent = true;
    }
    const LineReader::ReadResult result =
        reader_->read_line_for(line, timeout_ms);
    if (result == LineReader::ReadResult::kTimeout) continue;
    if (result == LineReader::ReadResult::kClosed) break;
    if (line.empty()) continue;
    if (take_final && take_final(line)) return Json();
    std::string parse_error;
    const auto response = Json::try_parse(line, &parse_error);
    if (!response.has_value()) {
      throw std::runtime_error(where() + ": bad response line: " +
                               parse_error);
    }
    const Json* response_id = response->find("id");
    if (response_id == nullptr || response_id->as_u64() != id) {
      continue;  // a stray line for another (abandoned) request id
    }
    if (response->find("event") != nullptr) {
      // Progress events racing the cancel are dropped: once "cancelling"
      // has been decided, a counter that keeps climbing is noise. The
      // per-run `finished` events still flow — they carry the real
      // completion tally.
      if (cancel_sent &&
          util::string_field_or(*response, "event") == "progress") {
        continue;
      }
      if (on_event) on_event(*response);
      continue;
    }
    return *response;
  }
  throw std::runtime_error(where() + ": connection closed before the "
                           "response arrived");
}

std::vector<api::RunReport> Client::run(
    const std::vector<api::RunRequest>& requests, bool stream_progress,
    EventHandler on_event, api::RunControl* control,
    api::Priority priority) {
  Json requests_json = Json::array();
  for (const auto& request : requests) {
    requests_json.append(api::request_to_json(request));
  }
  last_run_id_ = next_id_++;
  Json message = Json::object();
  message.set("id", last_run_id_)
      .set("verb", "run")
      .set("requests", std::move(requests_json))
      .set("progress", stream_progress)
      .set("priority", api::priority_name(priority));
  // The reply with reports is decoded straight from its line; every other
  // line of the conversation is read as a tree.
  const std::uint64_t id = last_run_id_;
  std::optional<std::vector<api::RunReport>> reports;
  const Json response = transact(
      std::move(message), on_event, control, [&](std::string_view line) {
        reports = read_run_reply(line, id, requests, where());
        return reports.has_value();
      });
  if (reports.has_value()) return std::move(*reports);
  if (const Json* ok = response.find("ok"); ok == nullptr || !ok->as_bool()) {
    const Json* error = response.find("error");
    const std::string what =
        where() + ": " +
        (error != nullptr && error->is_string() ? error->as_string()
                                                : "server rejected the batch");
    if (const Json* overloaded = response.find("overloaded");
        overloaded != nullptr && overloaded->is_bool() &&
        overloaded->as_bool()) {
      throw OverloadedError(
          what,
          static_cast<std::size_t>(util::u64_field_or(response, "queued", 0)),
          util::u64_field_or(response, "retry_after_ms", 0));
    }
    throw RemoteError(what);
  }
  // read_run_reply takes every ok:true reply that carries a reports array.
  throw RemoteError(where() + ": malformed response: missing 'reports'");
}

bool Client::cancel(std::uint64_t run_id) {
  Json message = Json::object();
  message.set("verb", "cancel").set("target", run_id);
  const Json response = transact(std::move(message), nullptr);
  if (const Json* ok = response.find("ok"); ok == nullptr || !ok->as_bool()) {
    const Json* error = response.find("error");
    throw RemoteError(where() + ": " +
                      (error != nullptr && error->is_string()
                           ? error->as_string()
                           : "cancel rejected"));
  }
  const Json* cancelled = response.find("cancelled");
  return cancelled != nullptr && cancelled->is_bool() &&
         cancelled->as_bool();
}

bool Client::ping() {
  try {
    Json message = Json::object();
    message.set("verb", "ping");
    const Json response = transact(std::move(message), nullptr);
    const Json* ok = response.find("ok");
    return ok != nullptr && ok->as_bool();
  } catch (const std::exception&) {
    return false;
  }
}

Json Client::health() {
  Json message = Json::object();
  message.set("verb", "health");
  Json response = transact(std::move(message), nullptr);
  if (const Json* ok = response.find("ok"); ok == nullptr || !ok->as_bool()) {
    const Json* error = response.find("error");
    throw RemoteError(where() + ": " +
                      (error != nullptr && error->is_string()
                           ? error->as_string()
                           : "health probe rejected"));
  }
  return response;
}

Json Client::list_algorithms() {
  Json message = Json::object();
  message.set("verb", "list_algorithms");
  const Json response = transact(std::move(message), nullptr);
  const Json* algorithms = response.find("algorithms");
  if (algorithms == nullptr) {
    throw RemoteError(where() + ": malformed response: missing 'algorithms'");
  }
  return *algorithms;
}

std::vector<std::string> Client::list_problems() {
  Json message = Json::object();
  message.set("verb", "list_problems");
  const Json response = transact(std::move(message), nullptr);
  const Json* problems = response.find("problems");
  if (problems == nullptr || !problems->is_array()) {
    throw RemoteError(where() + ": malformed response: missing 'problems'");
  }
  std::vector<std::string> out;
  out.reserve(problems->as_array().size());
  for (const auto& name : problems->as_array()) {
    out.push_back(name.as_string());
  }
  return out;
}

Json Client::cache_stats() {
  Json message = Json::object();
  message.set("verb", "cache_stats");
  return transact(std::move(message), nullptr);
}

Json Client::metrics() {
  Json message = Json::object();
  message.set("verb", "metrics");
  Json response = transact(std::move(message), nullptr);
  if (const Json* ok = response.find("ok"); ok == nullptr || !ok->as_bool()) {
    const Json* error = response.find("error");
    throw RemoteError(where() + ": " +
                      (error != nullptr && error->is_string()
                           ? error->as_string()
                           : "metrics probe rejected"));
  }
  return response;
}

void Client::shutdown_server() {
  Json message = Json::object();
  message.set("verb", "shutdown");
  transact(std::move(message), nullptr);
}

}  // namespace moela::serve
