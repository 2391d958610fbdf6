// Per-layer rungs: each one times calls into a single layer's public
// functions in isolation, from the benchmark's side.  Every traced run
// measures the whole ladder, so every workload's traced result carries the
// same rung set and the rungs can be read against that workload's
// end-to-end numbers.
#include "ladder.h"

#include <cstring>
#include <thread>

#include "codec/gf256.h"
#include "codec/reed_solomon.h"
#include "dpss/deployment.h"
#include "dpss/protocol.h"
#include "net/message.h"
#include "net/reactor_server.h"
#include "net/tcp.h"
#include "render/raycast.h"
#include "render/transfer.h"
#include "vol/dataset.h"
#include "vol/decompose.h"

namespace perfbench {
namespace {

using namespace visapult;

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * 1024;

// A small request out, a `reply_bytes` reply back: the shape of a block
// read on the wire.
net::Message request_frame() {
  net::Message m;
  m.type = 1;
  m.payload.assign(48, 7);
  return m;
}

// Loopback TcpStream pair with an echo thread answering every request with
// a `reply_bytes` reply.  Median round trip, microseconds.
double tcp_rtt_us(std::size_t reply_bytes, std::string* err) {
  net::TcpListener listener;
  if (auto st = listener.listen(0); !st.is_ok()) {
    *err = st.to_string();
    return 0.0;
  }
  auto client = net::TcpStream::connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  if (!client.is_ok() || !server.is_ok()) {
    *err = "loopback connect failed";
    return 0.0;
  }
  net::StreamPtr srv = server.value();
  std::thread echo([srv, reply_bytes] {
    net::Message reply;
    reply.type = 2;
    reply.payload.assign(reply_bytes, 1);
    for (;;) {
      auto m = net::recv_message(*srv);
      if (!m.is_ok()) return;
      if (!net::send_message(*srv, reply).is_ok()) return;
    }
  });
  net::StreamPtr c = client.value();
  const net::Message req = request_frame();
  bool ok = true;
  const double us = median_call_us(15, 200, [&] {
    ok = ok && net::send_message(*c, req).is_ok() &&
         net::recv_message(*c).is_ok();
  });
  c->close();
  echo.join();
  srv->close();
  if (!ok) *err = "tcp echo round trip failed";
  return us;
}

// The same round trip through a ReactorServer whose handler runs on a
// worker pool, as a block server's front door does.
double reactor_rtt_us(std::size_t reply_bytes, std::string* err) {
  net::ReactorPool loops(1);
  core::ThreadPool workers(4);
  net::ReactorServer front(
      loops,
      [reply_bytes](net::Message&&, std::uint64_t) {
        net::Message reply;
        reply.type = 2;
        reply.payload.resize(reply_bytes);
        return reply;
      },
      {}, &workers);
  if (auto st = front.listen(0); !st.is_ok()) {
    *err = st.to_string();
    return 0.0;
  }
  auto client = net::TcpStream::connect("127.0.0.1", front.port());
  if (!client.is_ok()) {
    *err = client.status().to_string();
    return 0.0;
  }
  net::StreamPtr c = client.value();
  const net::Message req = request_frame();
  bool ok = true;
  const double us = median_call_us(15, 200, [&] {
    ok = ok && net::send_message(*c, req).is_ok() &&
         net::recv_message(*c).is_ok();
  });
  c->close();
  front.close();
  if (!ok) *err = "reactor echo round trip failed";
  return us;
}

// Encode plus decode of a block-read reply carrying `bytes`.
double reply_codec_us(std::size_t bytes, double* decode_only_us,
                      std::string* err) {
  dpss::BlockReadReply reply;
  reply.block = 3;
  reply.data.assign(bytes, 0x5a);
  const net::Message encoded = dpss::encode_block_read_reply(reply);
  bool ok = true;
  *decode_only_us = median_call_us(15, 200, [&] {
    ok = ok && dpss::decode_block_read_reply(encoded).is_ok();
  });
  const double us = median_call_us(15, 200, [&] {
    auto d = dpss::decode_block_read_reply(dpss::encode_block_read_reply(reply));
    ok = ok && d.is_ok() && d.value().data == reply.data;
  });
  if (!ok) *err = "reply did not round-trip";
  return us;
}

// GB/s moving 4 MiB through one loopback TCP stream.
double tcp_stream_gbps(std::string* err) {
  net::TcpListener listener;
  if (auto st = listener.listen(0); !st.is_ok()) {
    *err = st.to_string();
    return 0.0;
  }
  auto client = net::TcpStream::connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  if (!client.is_ok() || !server.is_ok()) {
    *err = "loopback connect failed";
    return 0.0;
  }
  constexpr int kChunks = 64;
  net::StreamPtr srv = server.value();
  std::thread sink([srv] {
    std::vector<std::uint8_t> buf(4 * kMiB);
    for (int i = 0; i < kChunks; ++i) {
      if (!srv->recv_all(buf.data(), buf.size()).is_ok()) return;
    }
    std::uint8_t ack = 1;
    (void)srv->send_all(&ack, 1);
  });
  std::vector<std::uint8_t> buf(4 * kMiB, 3);
  net::StreamPtr c = client.value();
  const double t0 = now_s();
  for (int i = 0; i < kChunks; ++i) {
    if (!c->send_all(buf.data(), buf.size()).is_ok()) *err = "tcp send failed";
  }
  std::uint8_t ack = 0;
  if (!c->recv_all(&ack, 1).is_ok()) *err = "tcp ack failed";
  const double total = now_s() - t0;
  sink.join();
  c->close();
  srv->close();
  return static_cast<double>(kChunks) * 4 * kMiB / total / 1e9;
}

double memcpy_gbps() {
  std::vector<std::uint8_t> a(4 * kMiB, 1), b(4 * kMiB, 2);
  const double us = median_call_us(9, 16, [&] {
    std::memcpy(b.data(), a.data(), a.size());
    a[0] = b[a.size() - 1];  // keep the copy observable
  });
  return static_cast<double>(a.size()) / (us * 1e-6) / 1e9;
}

}  // namespace

std::vector<Metric> measure_ladder(std::vector<std::string>* errors) {
  std::vector<Metric> out;
  auto put = [&](const char* name, double v, const char* unit, std::size_t n) {
    out.push_back({name, v, unit, n});
  };
  std::string err;
  auto check = [&](const char* what) {
    if (!err.empty()) errors->push_back(std::string(what) + ": " + err);
    err.clear();
  };

  // ---- net ----
  put("net.tcp_rtt_us.4k", tcp_rtt_us(4 * kKiB, &err), "us", 3000);
  check("net.tcp_rtt_us.4k");
  put("net.tcp_rtt_us.64k", tcp_rtt_us(64 * kKiB, &err), "us", 3000);
  check("net.tcp_rtt_us.64k");
  put("net.reactor_rtt_us.4k", reactor_rtt_us(4 * kKiB, &err), "us", 3000);
  check("net.reactor_rtt_us.4k");
  put("net.reactor_rtt_us.64k", reactor_rtt_us(64 * kKiB, &err), "us", 3000);
  check("net.reactor_rtt_us.64k");

  // ---- dpss protocol ----
  double dec4 = 0.0, dec64 = 0.0;
  put("dpss_protocol.reply_codec_us.4k", reply_codec_us(4 * kKiB, &dec4, &err),
      "us", 3000);
  check("dpss_protocol.reply_codec_us.4k");
  put("dpss_protocol.reply_codec_us.64k",
      reply_codec_us(64 * kKiB, &dec64, &err), "us", 3000);
  check("dpss_protocol.reply_codec_us.64k");
  put("dpss_protocol.reply_decode_us.64k", dec64, "us", 3000);

  // ---- dpss server: in-process handler on a warm hit ----
  {
    dpss::PipeDeployment dep(1);
    const vol::DatasetDesc small4{"rung4k", {32, 32, 32}, 1,
                                  vol::Generator::kCombustion, 42};
    const vol::DatasetDesc small64{"rung64k", {32, 32, 32}, 1,
                                   vol::Generator::kCombustion, 42};
    if (!dep.ingest(small4, 4 * kKiB).is_ok() ||
        !dep.ingest(small64, 64 * kKiB).is_ok()) {
      errors->push_back("dpss_server.handle_us: ingest failed");
    }
    dpss::BlockServer& srv = dep.server(0);
    const std::uint64_t conn = srv.allocate_conn_id();
    for (const auto& [name, ds] :
         {std::pair{"dpss_server.handle_us.4k", "rung4k"},
          std::pair{"dpss_server.handle_us.64k", "rung64k"}}) {
      dpss::BlockReadRequest req;
      req.dataset = ds;
      req.block = 1;
      const net::Message msg = dpss::encode_block_read_request(req);
      bool ok = true;
      const double us = median_call_us(15, 200, [&] {
        net::Message copy = msg;
        net::Message reply = srv.handle_request(std::move(copy), conn);
        ok = ok && reply.type == dpss::kBlockReadReply;
      });
      if (!ok) errors->push_back(std::string(name) + ": bad reply");
      put(name, us, "us", 3000);
    }

    // ---- dpss client over pipes ----
    const vol::DatasetDesc pipe_ds{"rungpipe", {128, 128, 16}, 1,
                                   vol::Generator::kCombustion, 42};
    dpss::PipeDeployment pipes(4);
    std::vector<double> lat;
    if (pipes.ingest(pipe_ds).is_ok()) {
      auto client = pipes.make_client();
      auto file = client.open(pipe_ds.name);
      if (file.is_ok()) {
        std::vector<std::uint8_t> buf(pipe_ds.total_bytes());
        (void)file.value()->pread(buf.data(), buf.size(), 0);  // warm
        Rng rng(7);
        const std::uint64_t slots = buf.size() / (4 * kKiB);
        for (int i = 0; i < 2000; ++i) {
          const std::uint64_t off = rng.below(slots) * 4 * kKiB;
          const double t0 = now_s();
          auto r = file.value()->pread(buf.data(), 4 * kKiB, off);
          lat.push_back((now_s() - t0) * 1e6);
          if (!r.is_ok()) errors->push_back("pipe pread failed");
        }
      }
    }
    if (lat.empty()) errors->push_back("dpss_client.pipe_pread_us.4k: no reads");
    put("dpss_client.pipe_pread_us.4k", median(lat), "us", lat.size());
  }

  put("dpss_client.fanout_spawn_us", median_call_us(15, 200, [] {
        std::thread t([] {});
        t.join();
      }),
      "us", 3000);

  // ---- one-server TCP bandwidth rung ----
  {
    const vol::DatasetDesc ds{"rung1srv", {128, 128, 64}, 2,
                              vol::Generator::kCombustion, 42};
    dpss::TcpDeployment dep(1);
    std::vector<double> per_op;
    if (dep.start().is_ok() && dep.ingest(ds).is_ok()) {
      auto client = dep.make_client();
      if (client.is_ok()) {
        auto file = client.value().open(ds.name);
        if (file.is_ok()) {
          std::vector<std::uint8_t> buf(4 * kMiB);
          const std::uint64_t chunks = ds.total_bytes() / buf.size();
          for (std::uint64_t i = 0; i < 24; ++i) {
            const double t0 = now_s();
            auto r = file.value()->pread(buf.data(), buf.size(),
                                         (i % chunks) * buf.size());
            if (i >= chunks) per_op.push_back(now_s() - t0);  // warm passes
            if (!r.is_ok()) errors->push_back("1srv pread failed");
          }
        }
      }
    }
    if (per_op.empty()) errors->push_back("dpss_client.pread_1srv_gbps: no reads");
    put("dpss_client.pread_1srv_gbps",
        per_op.empty() ? 0.0 : 4.0 * kMiB / median(per_op) / 1e9, "GB/s",
        per_op.size());
  }

  // ---- hardware ceilings ----
  put("ceiling.memcpy_gbps", memcpy_gbps(), "GB/s", 144);
  put("ceiling.tcp_stream_gbps", tcp_stream_gbps(&err), "GB/s", 64);
  check("ceiling.tcp_stream_gbps");

  // ---- codec: RS(4,2) over 64 KiB slices ----
  {
    constexpr std::size_t n = 64 * kKiB;
    codec::ReedSolomon rs(4, 2);
    std::vector<std::vector<std::uint8_t>> data(4, std::vector<std::uint8_t>(n));
    for (std::size_t s = 0; s < data.size(); ++s) {
      fill_pattern(data[s].data(), n, s + 1);
    }
    std::vector<const std::uint8_t*> ptrs;
    for (auto& d : data) ptrs.push_back(d.data());
    std::vector<std::vector<std::uint8_t>> parity;
    const double enc_us =
        median_call_us(11, 20, [&] { rs.encode(ptrs, n, &parity); });
    put("codec.encode_gbps", 4.0 * n / (enc_us * 1e-6) / 1e9, "GB/s", 220);

    std::vector<char> present = {0, 1, 1, 1, 1, 1};
    bool ok = true;
    const double rec_us = median_call_us(11, 20, [&] {
      std::vector<std::vector<std::uint8_t>> shards = {
          {}, data[1], data[2], data[3], parity[0], parity[1]};
      ok = ok && rs.reconstruct(shards, present, n, false).is_ok() &&
           shards[0] == data[0];
    });
    if (!ok) errors->push_back("codec.reconstruct: wrong bytes");
    put("codec.reconstruct_gbps", 4.0 * n / (rec_us * 1e-6) / 1e9, "GB/s", 220);

    std::vector<std::uint8_t> y(n);
    const double delta_us = median_call_us(11, 100, [&] {
      codec::gf256::delta_apply(y.data(), parity[0].data(), data[1].data(), n,
                                0x1d);
    });
    put("codec.delta_apply_gbps", n / (delta_us * 1e-6) / 1e9, "GB/s", 1100);
  }

  // ---- vol + render ----
  {
    const vol::Dims dims{128, 128, 64};
    std::vector<double> gen_s;
    vol::Volume v;
    for (int t = 0; t < 3; ++t) {
      const double t0 = now_s();
      v = vol::generate_combustion(dims, t, 42);
      gen_s.push_back(now_s() - t0);
    }
    put("vol.generate_mbps", dims.byte_size() / median(gen_s) / 1e6, "MB/s", 3);

    // One PE's slab of the frame workload's 128^3 volume (4 PEs).
    const vol::Dims frame_dims{128, 128, 128};
    const vol::Volume full = vol::generate_combustion(frame_dims, 0, 42);
    auto slabs = vol::slab_decompose(frame_dims, 4, vol::Axis::kZ);
    const auto tf = render::TransferFunction::fire();
    std::vector<double> ms;
    if (slabs.is_ok()) {
      for (int i = 0; i < 5; ++i) {
        const double t0 = now_s();
        auto img = render::render_brick_along_axis(full, slabs.value()[0],
                                                   vol::Axis::kZ, tf);
        ms.push_back((now_s() - t0) * 1e3);
        if (!img.is_ok()) errors->push_back("render.brick: render failed");
      }
    }
    put("render.brick_ms", median(ms), "ms", ms.size());
  }
  return out;
}

}  // namespace perfbench
