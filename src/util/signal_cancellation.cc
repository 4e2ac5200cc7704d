#include "util/signal_cancellation.h"

#include <atomic>
#include <csignal>

#include "util/cancellation.h"

namespace confsim {

namespace {

std::atomic<CancellationToken *> g_token{nullptr};
std::atomic<int> g_signal{0};

extern "C" void
onCancellationSignal(int signo)
{
    g_signal.store(signo, std::memory_order_relaxed);
    if (CancellationToken *token =
            g_token.load(std::memory_order_acquire))
        token->cancel();
}

} // namespace

void
installSignalCancellation(CancellationToken &token)
{
    g_token.store(&token, std::memory_order_release);
    struct sigaction action = {};
    action.sa_handler = onCancellationSignal;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: an interrupted blocking call returns EINTR
    // instead of resuming, so its caller can poll the token.
    action.sa_flags = 0;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
}

int
lastCancellationSignal()
{
    return g_signal.load(std::memory_order_relaxed);
}

int
exitCodeForSignal(int signal)
{
    return signal > 0 ? 128 + signal : 1;
}

} // namespace confsim
