"""A from-scratch mini-CORBA ORB over the simulated network.

This package stands in for the commercial ORBs (VisiBroker, ILU) of the
paper's testbed: it produces a genuine GIOP message stream -- Request /
Reply / LocateRequest / CloseConnection, CDR-marshaled bodies, IORs with
IIOP profiles -- which is exactly what the Eternal interception layer needs
to divert.  The application-facing API mirrors CORBA's shape:

- define an interface by subclassing :class:`~repro.orb.idl.Servant` and
  decorating methods with :func:`~repro.orb.idl.operation`;
- register servants with a :class:`~repro.orb.poa.POA` to obtain an
  :class:`~repro.orb.ior.IOR`;
- create client stubs with :meth:`ORB.stub`; invocations return
  :class:`~repro.orb.orb_core.Future` objects (the simulation is
  event-driven, so there is no blocking call);
- servant methods that invoke other objects (nested operations) are
  written as generators yielding :class:`~repro.orb.idl.NestedCall`.
"""

from repro.orb.exceptions import (
    ApplicationError,
    BadOperation,
    CommFailure,
    InvObjref,
    MarshalError,
    NoImplement,
    ObjectNotExist,
    SystemException,
    TimeoutError_,
    Transient,
)
from repro.orb.cdr import CdrDecoder, CdrEncoder, decode_value, encode_value
from repro.orb.idl import NestedCall, Servant, interface_of, operation
from repro.orb.giop import (
    CancelRequestMessage,
    CloseConnectionMessage,
    LocateReplyMessage,
    LocateRequestMessage,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_message,
)
from repro.orb.ior import IOR, FTGroupProfile, IIOPProfile
from repro.orb.transport import Acceptor, Connection, TcpTransport
from repro.orb.poa import POA
from repro.orb.orb_core import DirectRouter, Future, ORB, Stub, wait_for
from repro.orb.naming import NamingContext
from repro.orb.events import EventChannel, PushConsumer

__all__ = [
    "ApplicationError",
    "BadOperation",
    "CommFailure",
    "InvObjref",
    "MarshalError",
    "NoImplement",
    "ObjectNotExist",
    "SystemException",
    "TimeoutError_",
    "Transient",
    "CdrDecoder",
    "CdrEncoder",
    "decode_value",
    "encode_value",
    "NestedCall",
    "Servant",
    "interface_of",
    "operation",
    "CancelRequestMessage",
    "CloseConnectionMessage",
    "LocateReplyMessage",
    "LocateRequestMessage",
    "ReplyMessage",
    "ReplyStatus",
    "RequestMessage",
    "decode_message",
    "encode_message",
    "IOR",
    "FTGroupProfile",
    "IIOPProfile",
    "Acceptor",
    "Connection",
    "TcpTransport",
    "POA",
    "DirectRouter",
    "Future",
    "ORB",
    "Stub",
    "wait_for",
    "NamingContext",
    "EventChannel",
    "PushConsumer",
]
