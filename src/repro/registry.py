"""Named-backend registries: one shape for kernels and hierarchy models.

The pipeline-kernel registry (:mod:`repro.pipeline.kernel`) and the
memory-hierarchy registry (:mod:`repro.sim.hierarchy_model`) are mirror
images: each maps a name to one stateless backend instance, refuses a
second class under a taken name (silently shadowing a backend would
poison result-store keys), and resolves a process default in the order
:meth:`Registry.set_default` (the CLI flag) > an environment variable >
a built-in name.
"""

import os


class Registry:
    """Name → backend instance table with a process default.

    ``noun`` names the backend kind in every error message (``"pipeline
    kernel"``), ``env`` is the environment variable holding the default,
    and ``builtin`` the default when neither it nor :meth:`set_default`
    names one.
    """

    def __init__(self, noun, env, builtin):
        self.noun = noun
        self.env = env
        self.builtin = builtin
        self._instances = {}
        self._default = None

    def register(self, backend_class):
        """Register a backend class under its ``name`` (a class decorator).

        Re-registering a taken name raises.
        """
        name = backend_class.name
        if not name or not isinstance(name, str):
            raise ValueError("%s %r has no name" % (self.noun, backend_class))
        if name in self._instances:
            raise ValueError("%s name %r already registered" % (self.noun, name))
        self._instances[name] = backend_class()
        return backend_class

    def names(self):
        """Sorted names of every registered backend."""
        return sorted(self._instances)

    def get(self, name):
        """The registered instance for ``name`` (KeyError if unknown)."""
        try:
            return self._instances[name]
        except KeyError:
            raise KeyError(self._unknown(name))

    def default_name(self):
        """The process-default name.

        An unknown name in the environment raises ``ValueError`` rather
        than silently running the wrong backend.
        """
        if self._default is not None:
            return self._default
        env = os.environ.get(self.env)
        if env:
            if env not in self._instances:
                raise ValueError("$%s names %s" % (self.env, self._unknown(env)))
            return env
        return self.builtin

    def set_default(self, name):
        """Set (or with ``None`` reset) the process default."""
        if name is not None and name not in self._instances:
            raise ValueError(self._unknown(name))
        self._default = name

    def resolve(self, backend=None):
        """Coerce ``backend`` (None, name, or instance) to an instance."""
        if backend is None:
            return self._instances[self.default_name()]
        if isinstance(backend, str):
            return self.get(backend)
        return backend

    def _unknown(self, name):
        return "unknown %s %r; available: %s" % (
            self.noun, name, ", ".join(self.names())
        )
