"""Precharged one-time-pad remote control: key stores, frames, sessions.

The toolkit models a controller/controlee pair that share precharged
one-time-pad key material, exchange fixed 32-byte command frames under a
clear 4-byte key address, and stay synchronized across frame loss by
burning skipped key blocks.  Replayed, plaintext and randomly corrupted
frames are rejected; a crafted XOR forgery is not, as the pad is
malleable and the one check is a match against the public registry.  A
channel simulator with an eavesdropper tap and a statistical randomness
suite (frequency, runs, balance, run lengths, autocorrelation) complete
the loop: what leaves the controller should be indistinguishable from
noise.  The names exported here, listed in the README's "Library use",
are the public surface; every other name is internal.
"""

from .channel import (
    Channel,
    ChannelConfig,
    Delivery,
    Intercept,
    InterceptLog,
    TamperModel,
    Transmission,
    export_intercepts,
    extract_ciphertext,
    load_intercepts,
)
from .entropy import EntropySource, SeededSource, make_source
from .errors import (
    BadLength,
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    KeyExhausted,
    KeyReused,
    OtpRemctlError,
    OutOfRange,
    SksFormatError,
    TruncatedFile,
)
from .frame import (
    FRAME_LEN,
    HEADER,
    WIRE_LEN,
    CipherMode,
    CommandFrame,
    CommandRegistry,
    WireFrame,
    encode_command,
    otp_decrypt,
    otp_encrypt,
    parse_wire,
    standard_registry,
)
from .keystore import SksStore, charge
from .protocol import (
    Controlee,
    Controller,
    DiscardReason,
    RxOutcome,
    SessionLog,
    SessionRecord,
    run_session,
)
from .randtest import (
    BitSequence,
    TestResult,
    autocorrelation,
    golomb_balance,
    golomb_run_lengths,
    monobit_frequency,
    nist_runs,
    pass_proportion,
)

__version__ = "0.1.0"
