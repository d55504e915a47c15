"""Precharged one-time-pad remote control: key stores, frames, sessions.

The toolkit models a controller/controlee pair that share precharged
one-time-pad key material, exchange fixed 32-byte command frames under a
clear 4-byte key address, stay synchronized across frame loss by burning
skipped key blocks, and reject replayed or corrupted frames.  A channel
simulator with an eavesdropper tap and a statistical randomness suite
(frequency, runs, balance, run lengths, autocorrelation) complete the
loop: what leaves the controller should be indistinguishable from noise.
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
from .entropy import (
    EntropySource,
    FileSource,
    SeededSource,
    SystemSource,
    make_source,
)
from .errors import (
    BadLength,
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    ExhaustedSource,
    KeyExhausted,
    KeyLengthMismatch,
    KeyReused,
    LagOutOfRange,
    OtpRemctlError,
    OutOfRange,
    SksFormatError,
    TooShort,
    TruncatedFile,
)
from .frame import (
    CHANNEL_COUNT,
    FRAME_LEN,
    FULL_BLOCK_SIZE,
    HEADER,
    SELECTIVE_BLOCK_SIZE,
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
    validate_frame,
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
    AutocorrSeries,
    BalanceResult,
    BitSequence,
    ProportionResult,
    RunLengthResult,
    TestResult,
    autocorrelation,
    golomb_balance,
    golomb_run_lengths,
    monobit_frequency,
    nist_runs,
    pass_proportion,
)

__version__ = "0.1.0"
