#include "calib.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "layers.h"

namespace rzbench {

namespace {

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/// Event-loop-like churn: a time-ordered heap of std::function events.
uint64_t
event_queue(uint64_t &x)
{
    struct Ev {
        uint64_t when, seq;
        std::function<void()> fn;
    };
    struct Later {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    std::priority_queue<Ev, std::vector<Ev>, Later> q;
    uint64_t sink = 0;
    for (uint64_t i = 0; i < 20000; ++i) {
        q.push(Ev{xorshift(x) % 100000, i, [&sink, i] { sink += i; }});
        if (q.size() > 256) {
            Ev e = std::move(const_cast<Ev &>(q.top()));
            q.pop();
            e.fn();
        }
    }
    while (!q.empty()) {
        Ev e = std::move(const_cast<Ev &>(q.top()));
        q.pop();
        e.fn();
    }
    return sink;
}

/// Zero-filled buffer allocation and copies, as metadata encoding does.
uint64_t
buffers(uint64_t &x)
{
    std::vector<uint8_t> src(65536, 1);
    std::vector<std::shared_ptr<std::vector<uint8_t>>> live(64);
    uint64_t sink = 0;
    for (int i = 0; i < 2000; ++i) {
        auto v = std::make_shared<std::vector<uint8_t>>(
            4096 + (xorshift(x) & 7) * 1024);
        std::memcpy(v->data(), src.data() + (i * 64) % 32768, v->size());
        sink += (*v)[static_cast<size_t>(i) % v->size()];
        live[static_cast<size_t>(i) % live.size()] = std::move(v);
    }
    return sink;
}

/// Byte-at-a-time table loop, as a table-driven CRC does.
uint64_t
table_loop(uint64_t &x)
{
    uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i)
        t[i] = static_cast<uint32_t>(xorshift(x));
    std::vector<uint8_t> buf(65536);
    for (auto &b : buf)
        b = static_cast<uint8_t>(xorshift(x));
    uint32_t c = 0;
    for (int r = 0; r < 6; ++r)
        for (uint8_t b : buf)
            c = t[(c ^ b) & 0xff] ^ (c >> 8);
    return c;
}

/// Ordered string map inserts and lookups, as a memtable does.
uint64_t
string_map(uint64_t &x)
{
    std::map<std::string, std::string> m;
    uint64_t sink = 0;
    char key[24];
    for (int i = 0; i < 4000; ++i) {
        std::snprintf(key, sizeof(key), "%016llu",
                      static_cast<unsigned long long>(xorshift(x) % 100000));
        m[key] = std::string(64, static_cast<char>('a' + i % 26));
        std::snprintf(key, sizeof(key), "%016llu",
                      static_cast<unsigned long long>(xorshift(x) % 100000));
        auto it = m.find(key);
        sink += it == m.end() ? 0 : it->second.size();
    }
    return sink;
}

} // namespace

uint64_t
calibration_cpu_ns()
{
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t t0 = cpu_ns();
    volatile uint64_t sink = event_queue(x) + buffers(x) + table_loop(x) +
        string_map(x);
    (void)sink;
    return cpu_ns() - t0;
}

} // namespace rzbench
