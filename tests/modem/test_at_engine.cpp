#include "modem/at_engine.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace onelab::modem {
namespace {

struct AtEngineTest : ::testing::Test {
    AtEngineTest() : pipe(sim), engine(sim, "test") {
        engine.attachTty(pipe.b());
        pipe.a().onData([this](util::ByteView data) {
            received.append(data.begin(), data.end());
        });
    }

    void hostSend(const std::string& text) {
        pipe.a().write({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
        sim.runUntil(sim.now() + sim::millis(10));
    }

    sim::Simulator sim;
    sim::Pipe pipe;
    AtEngine engine;
    std::string received;
};

TEST_F(AtEngineTest, BareAtRepliesOk) {
    hostSend("AT\r");
    EXPECT_NE(received.find("OK"), std::string::npos);
}

TEST_F(AtEngineTest, EchoOnByDefault) {
    hostSend("AT\r");
    EXPECT_NE(received.find("AT"), std::string::npos);
}

TEST_F(AtEngineTest, CommandDispatchWithTail) {
    std::string gotCommand;
    std::string gotTail;
    engine.registerCommand("+CPIN", [&](const std::string& cmd, const std::string& tail) {
        gotCommand = cmd;
        gotTail = tail;
        engine.final("OK");
    });
    hostSend("AT+CPIN?\r");
    EXPECT_EQ(gotCommand, "AT+CPIN?");
    EXPECT_EQ(gotTail, "?");
    EXPECT_EQ(engine.commandsHandled(), 1u);
}

TEST_F(AtEngineTest, LongestPrefixWins) {
    std::string hit;
    engine.registerCommand("+C", [&](const std::string&, const std::string&) {
        hit = "+C";
        engine.final("OK");
    });
    engine.registerCommand("+CGDCONT", [&](const std::string&, const std::string&) {
        hit = "+CGDCONT";
        engine.final("OK");
    });
    hostSend("AT+CGDCONT=1\r");
    EXPECT_EQ(hit, "+CGDCONT");
}

TEST_F(AtEngineTest, UnknownCommandErrors) {
    hostSend("AT+NOSUCH\r");
    EXPECT_NE(received.find("ERROR"), std::string::npos);
}

TEST_F(AtEngineTest, NonAtLineErrors) {
    hostSend("HELLO\r");
    EXPECT_NE(received.find("ERROR"), std::string::npos);
}

TEST_F(AtEngineTest, CaseInsensitiveDispatch) {
    bool hit = false;
    engine.registerCommand("+CSQ", [&](const std::string&, const std::string&) {
        hit = true;
        engine.final("OK");
    });
    hostSend("at+csq\r");
    EXPECT_TRUE(hit);
}

TEST_F(AtEngineTest, AsyncHandlerBlocksFurtherCommands) {
    engine.registerCommand("+SLOW", [&](const std::string&, const std::string&) {
        sim.schedule(sim::seconds(1.0), [this] { engine.final("OK"); });
    });
    hostSend("AT+SLOW\r");
    received.clear();
    hostSend("AT\r");  // while busy
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    sim.runUntil(sim.now() + sim::seconds(2.0));
    EXPECT_NE(received.find("OK"), std::string::npos);  // the slow final
}

TEST_F(AtEngineTest, ReplyLinesAreCrLfFramed) {
    engine.registerCommand("+INFO", [&](const std::string&, const std::string&) {
        engine.reply("+INFO: 1,2");
        engine.final("OK");
    });
    hostSend("AT+INFO\r");
    EXPECT_NE(received.find("\r\n+INFO: 1,2\r\n"), std::string::npos);
}

TEST_F(AtEngineTest, BackspaceEditsLine) {
    bool hit = false;
    engine.registerCommand("+CSQ", [&](const std::string&, const std::string&) {
        hit = true;
        engine.final("OK");
    });
    hostSend("AT+CSX\x08Q\r");
    EXPECT_TRUE(hit);
}

TEST_F(AtEngineTest, DataModeBypassesParser) {
    util::Bytes sunk;
    engine.enterDataMode([&](util::ByteView data) {
        sunk.insert(sunk.end(), data.begin(), data.end());
    });
    ASSERT_TRUE(engine.inDataMode());
    hostSend("AT\r");  // raw bytes, not a command
    EXPECT_EQ(std::string(sunk.begin(), sunk.end()), "AT\r");
    EXPECT_EQ(engine.commandsHandled(), 0u);
}

TEST_F(AtEngineTest, SendToHostInDataMode) {
    engine.enterDataMode([](util::ByteView) {});
    const util::Bytes frame{0x7e, 0xff, 0x7e};
    engine.sendToHost({frame.data(), frame.size()});
    sim.runUntil(sim.now() + sim::millis(10));
    EXPECT_EQ(received.size(), 3u);
}

TEST_F(AtEngineTest, EscapeSequenceWithGuardTimes) {
    bool escaped = false;
    engine.onEscape = [&] { escaped = true; };
    engine.enterDataMode([](util::ByteView) {});
    hostSend("some data");
    sim.runUntil(sim.now() + sim::seconds(1.5));  // guard silence
    hostSend("+++");
    EXPECT_FALSE(escaped);  // trailing guard not yet elapsed
    sim.runUntil(sim.now() + sim::seconds(1.5));
    EXPECT_TRUE(escaped);
}

TEST_F(AtEngineTest, PlusesInsideDataDoNotEscape) {
    bool escaped = false;
    engine.onEscape = [&] { escaped = true; };
    engine.enterDataMode([](util::ByteView) {});
    sim.runUntil(sim.now() + sim::seconds(1.5));
    hostSend("+++more data right after");  // no trailing guard
    sim.runUntil(sim.now() + sim::seconds(2.0));
    EXPECT_FALSE(escaped);
}

TEST_F(AtEngineTest, UnsolicitedSuppressedInDataMode) {
    engine.enterDataMode([](util::ByteView) {});
    received.clear();
    engine.unsolicited("^RSSI:18");
    sim.runUntil(sim.now() + sim::millis(10));
    EXPECT_TRUE(received.empty());
    engine.leaveDataMode();
    engine.unsolicited("^RSSI:18");
    sim.runUntil(sim.now() + sim::millis(10));
    EXPECT_NE(received.find("^RSSI:18"), std::string::npos);
}

TEST_F(AtEngineTest, EchoCanBeDisabled) {
    engine.setEcho(false);
    engine.registerCommand("+CSQ", [&](const std::string&, const std::string&) {
        engine.final("OK");
    });
    received.clear();
    hostSend("AT+CSQ\r");
    EXPECT_EQ(received.find("AT+CSQ"), std::string::npos);
    EXPECT_NE(received.find("OK"), std::string::npos);
}

// --- hostile-input hardening (guard layer) ---

std::uint64_t counterValue(const char* name) {
    return obs::Registry::instance().counter(name).value();
}

TEST_F(AtEngineTest, OversizedLineDiscardedAtCap) {
    engine.setEcho(false);
    engine.setMaxLineLength(64);
    const std::uint64_t before = counterValue("guard.at.line_overflow");
    int handled = 0;
    engine.registerCommand("+CSQ", [&](const std::string&, const std::string&) {
        ++handled;
        engine.final("OK");
    });
    // A CR-less 10 kB blast: one ERROR, no unbounded buffer growth,
    // and the counter names the event.
    hostSend("AT+CSQ" + std::string(10000, 'A'));
    hostSend("\r");
    EXPECT_EQ(handled, 0);
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    EXPECT_EQ(counterValue("guard.at.line_overflow"), before + 1);
    // The next well-formed command parses normally — the overflow
    // discarded only the hostile line.
    received.clear();
    hostSend("AT+CSQ\r");
    EXPECT_EQ(handled, 1);
    EXPECT_NE(received.find("OK"), std::string::npos);
}

TEST_F(AtEngineTest, MalformedDialStringRejectedBeforeHandler) {
    const std::uint64_t before = counterValue("guard.at.dial_rejected");
    int dials = 0;
    engine.registerCommand("D", [&](const std::string&, const std::string&) {
        ++dials;
        engine.final("CONNECT");
    });
    hostSend("ATD*99$(reboot)#\r");
    EXPECT_EQ(dials, 0);
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    EXPECT_EQ(counterValue("guard.at.dial_rejected"), before + 1);
    // A legitimate GPRS dial still reaches the handler.
    received.clear();
    hostSend("ATD*99#\r");
    EXPECT_EQ(dials, 1);
    EXPECT_NE(received.find("CONNECT"), std::string::npos);
}

TEST_F(AtEngineTest, DialValidationCanBeDisabled) {
    engine.setDialValidation(false);
    int dials = 0;
    engine.registerCommand("D", [&](const std::string&, const std::string&) {
        ++dials;
        engine.final("CONNECT");
    });
    hostSend("ATDhello world\r");
    EXPECT_EQ(dials, 1);
}

TEST_F(AtEngineTest, ValidDialStringCharsetAndLength) {
    EXPECT_TRUE(AtEngine::validDialString("*99#"));
    EXPECT_TRUE(AtEngine::validDialString("T*99***1#"));
    EXPECT_TRUE(AtEngine::validDialString("+390811234567"));
    EXPECT_TRUE(AtEngine::validDialString(std::string(40, '9')));
    EXPECT_FALSE(AtEngine::validDialString(std::string(41, '9')));
    EXPECT_FALSE(AtEngine::validDialString("*99;rm -rf#"));
    EXPECT_FALSE(AtEngine::validDialString("*99\x01#"));
}

TEST_F(AtEngineTest, RawPlusSpamCountedButNeverEscapes) {
    bool escaped = false;
    engine.onEscape = [&] { escaped = true; };
    engine.enterDataMode([](util::ByteView) {});
    const std::uint64_t before = counterValue("guard.at.escape_spam");
    // "+++" runs embedded in flowing data (no guard silence): the
    // spam detector counts them, the escape must not fire.
    hostSend("data+++data+++data+++");
    sim.runUntil(sim.now() + sim::seconds(2.0));
    EXPECT_FALSE(escaped);
    EXPECT_TRUE(engine.inDataMode());
    EXPECT_EQ(counterValue("guard.at.escape_spam"), before + 3);
}


/// The plain per-byte escape scan: one clock read and one decision per
/// byte. The reference model the chunked scan in AtEngine must match.
struct ReferenceEscapeScan {
    explicit ReferenceEscapeScan(sim::Simulator& simulator) : sim(simulator) {}

    void scan(util::ByteView data) {
        for (const std::uint8_t byte : data) {
            const sim::SimTime now = sim.now();
            if (byte == '+') {
                const bool guardOk = plusCount > 0 || (now - lastDataByte) >= kGuard;
                plusCount = guardOk ? plusCount + 1 : 0;
                if (plusCount == 0) {
                    if (++rawPlusRun >= 3) {
                        ++spam;
                        rawPlusRun = 0;
                    }
                } else {
                    rawPlusRun = 0;
                }
                if (plusCount == 3) {
                    if (escapeTimer.valid()) sim.cancel(escapeTimer);
                    escapeTimer = sim.schedule(kGuard, [this] {
                        escapeTimer = {};
                        plusCount = 0;
                        escapes.push_back(sim.now());
                    });
                }
            } else {
                plusCount = 0;
                rawPlusRun = 0;
                if (escapeTimer.valid()) {
                    sim.cancel(escapeTimer);
                    escapeTimer = {};
                }
            }
            lastDataByte = now;
        }
    }

    static constexpr sim::SimTime kGuard = sim::millis(1000);
    sim::Simulator& sim;
    sim::SimTime lastDataByte{-10'000'000'000};
    int plusCount = 0;
    int rawPlusRun = 0;
    sim::EventHandle escapeTimer;
    std::vector<sim::SimTime> escapes;
    std::uint64_t spam = 0;
};

TEST_F(AtEngineTest, ChunkedEscapeScanMatchesPerByteReference) {
    std::uint64_t totalEscapes = 0;
    std::uint64_t totalSpam = 0;
    for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        SCOPED_TRACE(seed);
        sim::Simulator simulator;
        sim::Pipe link(simulator);
        AtEngine scanner(simulator, "diff");
        scanner.attachTty(link.b());
        ReferenceEscapeScan reference(simulator);
        std::vector<sim::SimTime> escapes;
        scanner.onEscape = [&] { escapes.push_back(simulator.now()); };
        // The sink sees each chunk right after the engine scanned it,
        // at the same simulated instant: feed the reference from there.
        scanner.enterDataModeShared(
            [&](const util::SharedBytes& data) { reference.scan(data.view()); });
        const std::uint64_t spamBefore = counterValue("guard.at.escape_spam");

        std::mt19937 rng(seed);
        const double plusDensity[] = {0.0, 0.02, 0.5, 0.9, 1.0};
        const std::int64_t gapsMs[] = {1, 2, 500, 999, 1000, 1001, 1500, 2500};
        for (int chunk = 0; chunk < 300; ++chunk) {
            util::Bytes bytes;
            if (rng() % 5 == 0) {
                bytes.assign(1 + rng() % 3, '+');  // "+", "++" or "+++"
            } else {
                const double density = plusDensity[rng() % 5];
                bytes.resize(1 + rng() % 1600);
                for (std::uint8_t& byte : bytes) {
                    const bool plus = double(rng() % 1000) < density * 1000.0;
                    byte = plus ? '+' : std::uint8_t('a' + rng() % 26);
                }
            }
            link.a().write({bytes.data(), bytes.size()});
            // Gaps straddle the 1 s guard by a millisecond either way.
            const std::int64_t gapMs =
                std::max<std::int64_t>(gapsMs[rng() % 8] + std::int64_t(rng() % 3) - 1, 1);
            simulator.runUntil(simulator.now() + sim::millis(double(gapMs)));
        }
        simulator.runUntil(simulator.now() + sim::seconds(3.0));

        EXPECT_EQ(escapes, reference.escapes);
        EXPECT_EQ(counterValue("guard.at.escape_spam") - spamBefore, reference.spam);
        totalEscapes += reference.escapes.size();
        totalSpam += reference.spam;
    }
    // The streams must exercise both outcomes, or the comparison is empty.
    EXPECT_GT(totalEscapes, 0u);
    EXPECT_GT(totalSpam, 0u);
}

}  // namespace
}  // namespace onelab::modem
