"""Child process timed for ``setup_s``: import accpair and build an engine.

Prints the monotonic clock when done, then the path accpair was imported
from.  The parent takes the time from just before it started this process
to the printed instant; CLOCK_MONOTONIC is shared by all processes.
"""

import time

import accpair

accpair.PairingEngine(accpair.ProtocolParams(), M=1)
print(repr(time.monotonic()))
print(accpair.__file__)
