"""Model architecture catalog and static cost accounting."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("Activation", "ModelConfig"),
    ".catalog": (
        "MISTRAL_7B",
        "YI_34B",
        "LLAMA2_70B",
        "FALCON_180B",
        "TINY_1B",
        "get_model",
        "list_models",
        "register_model",
    ),
})
